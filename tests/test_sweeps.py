"""The hoisted invariant sweeps against the per-case loops they replaced.

``kms_sweep``, ``tomita_sweep``, ``keyfact_sweep``, ``tracesplit_sweep``
and ``cocycle_sweep`` form each map of one operand once and share it across
the cases that read it; kms, tomita and cocycle also read every pairing
from a table over all pairs, keyfact files each product by degree in one
pass over the probes, and tracesplit reads both traces of the unit row
(Phi_k's own weights) and of every f for one k in one pass over Phi_k's
legs.  All five yield blocks of (got, want) rows, which the runner
compares a whole row at a time and labels j-major across the rows.
Their reports must equal those of the oracles in conftest, which form
every map inside its case, on clean code and with a wrong map patched into
the module attribute the sweep looks up.  Under a mutant the sweep must
also fail some cases and keep its case count, so sharing a map did not
make a check vacuous.  Most mutants are wrong maps the sweeps share; the
two tomita label mutants make tomita_sweep's first failures carry the loop
variables of its hoisted loops, so a label that read the wrong operand or
z would differ, and a keyfact mutant whose first failure is far from the
first (v, k) does the same for keyfact_sweep's rows.  The mid-row mutant
fails entries inside each table row and at its end, so a block that
stopped at its first failure, or reordered its failures, would differ; the
split-entry mutant fails one trace of one f inside the rows of two k, the
other trace at each, so a trace-split block that compared one row only, or
labelled the wrong f, k or trace, would differ.

The sweeps and their oracles share one runner, ``tally.sweep``, which
takes blocks only: the oracles yield each case as a one-case block made by
conftest's ``case``.  So that equality cannot see a miscount, two toy
sweeps of blocks check the runner on its own, one of one-case blocks and
one of one-case and wider blocks mixed: blocks with no rows or rows of
width 0, labels j-major across several rows, no label read for a passing
case or past the first five, and each label read while the generator is
paused at its block.
"""

import conftest
import pytest

from conftest import (
    case, oracle_cocycle_sweep, oracle_keyfact_sweep, oracle_kms_sweep, oracle_tomita_sweep, oracle_tracesplit_sweep,
)
from cuntzmod import endos, flow, modular
from cuntzmod.algebra import monomial, multiply, one, zero
from cuntzmod.scalars import n_power
from cuntzmod.tally import sweep

SWEEPS = {
    "kms": (modular.kms_sweep, oracle_kms_sweep, (2, 2), 2401),
    "tomita": (modular.tomita_sweep, oracle_tomita_sweep, (2, 2), 14749),
    "kms_n3": (modular.kms_sweep, oracle_kms_sweep, (3, 1), 256),
    "tomita_n3": (modular.tomita_sweep, oracle_tomita_sweep, (3, 1), 1648),
    "keyfact": (endos.keyfact_sweep, oracle_keyfact_sweep, (2, 2), 245),
    "keyfact_n3": (endos.keyfact_sweep, oracle_keyfact_sweep, (3, 1), 80),
    "tracesplit": (endos.tracesplit_sweep, oracle_tracesplit_sweep, (2, 2), 308),
    "tracesplit_n3": (endos.tracesplit_sweep, oracle_tracesplit_sweep, (3, 1), 154),
    "tracesplit_len0": (endos.tracesplit_sweep, oracle_tracesplit_sweep, (3, 0), 28),
    "cocycle": (flow.cocycle_sweep, oracle_cocycle_sweep, (2, 1), 738),
    "cocycle_n3": (flow.cocycle_sweep, oracle_cocycle_sweep, (3, 1), 4112),
}


def _sigma_identity(monkeypatch):
    monkeypatch.setattr(modular, "sigma", lambda a: a)


def _delta_negated(monkeypatch):
    delta_power = modular.delta_power
    monkeypatch.setattr(modular, "delta_power", lambda a, z: delta_power(a, -z))


def _commutator_dropped(monkeypatch):
    # [D, .] read as the identity: b theta then sums to psi(a0 a1 a2).
    monkeypatch.setattr(modular, "commutator_D", lambda a: a)


def _wrong_degree_projection(monkeypatch, reads):
    # Phi_k reads the degree reads(k) instead of k, or nothing if that is
    # None.  keyfact's oracle projects onto each degree with
    # modular.gauge_component; the sweep files every v^* x and every probe
    # by degree and reads both sides' rows through endos._phi.  One wrong
    # projection goes into all three.  reads must leave k = 0 alone:
    # modular.expectation reads gauge_component(a, 0).
    gauge_component, phi = modular.gauge_component, endos._phi

    def wrong(a, k):
        return zero(a.n) if (j := reads(k)) is None else gauge_component(a, j)

    monkeypatch.setattr(modular, "gauge_component", wrong)
    monkeypatch.setattr(endos, "_phi", lambda graded, k: {} if (j := reads(k)) is None else phi(graded, j))


def _gauge_off_by_one(monkeypatch):
    # Off by one on every nonzero degree.  A shift of every degree alike
    # would go unseen: v Phi_k v^* == v v^* Phi_{k+m} holds at every k, so
    # it only maps each case to another true one.
    _wrong_degree_projection(monkeypatch, lambda k: k + 1 if k else k)


def _gauge_drops_degree_two(monkeypatch):
    # Phi_2 read as zero: every v of degree 0 still passes, so the first
    # failure is v = S_1^*, k = 2 (left side zero, right side S_1^* S_1
    # Phi_1), the 10th case, not the first.
    _wrong_degree_projection(monkeypatch, lambda k: None if k == 2 else k)


def _phi_weight_dropped(monkeypatch):
    # Phi_k, k < 0, without its weight n^k: both traces of every k < 0 case
    # with tau(f) != 0 come out n^|k| times too large.
    phi_k_endo = endos.phi_k_endo
    monkeypatch.setattr(endos, "phi_k_endo",
                        lambda k, n: phi_k_endo(k, n).scale(n_power(n, -k)) if k < 0 else phi_k_endo(k, n))


def _s_identity(monkeypatch):
    monkeypatch.setattr(modular, "tomita_S", lambda a: a)


def _pairing_without_adjoint(monkeypatch):
    # The oracle reads the pairing through inner_product, the sweep through
    # the starred pairing table; both lose the adjoint.
    psi_table = modular._psi_table
    monkeypatch.setattr(modular, "inner_product", lambda a, b: modular.state_psi(multiply(a, b)))
    monkeypatch.setattr(modular, "_psi_table", lambda lefts, rights, star=False: psi_table(lefts, rights))


def _mid_row_entries_bumped(monkeypatch):
    # psi(l' r) plus one wherever r is S_1 S_11^* (of degree -1) or
    # S_22 S_22^*: in every pairing table over the monomials up to length 2
    # in O_2, an entry inside each row (column 10 of 49) and the last one.
    # The oracles' pairings, oracle_psi_product for kms and inner_product
    # for tomita, take the same bump, so a block that stopped at its first
    # failure, or reordered its failures, would not match them.
    marked = [monomial(2, (1,), (1, 1)).terms, monomial(2, (2, 2), (2, 2)).terms]

    def bump(value, r):
        return value + 1 if r.terms in marked else value

    psi_table, inner_product, psi_product = modular._psi_table, modular.inner_product, conftest.oracle_psi_product
    monkeypatch.setattr(modular, "_psi_table", lambda lefts, rights, star=False: [
        [bump(value, r) for value, r in zip(row, rights)] for row in psi_table(lefts, rights, star)])
    monkeypatch.setattr(modular, "inner_product", lambda a, b: bump(inner_product(a, b), b))
    monkeypatch.setattr(conftest, "oracle_psi_product", lambda a, b: bump(psi_product(a, b), b))


def _split_entry_bumped(monkeypatch):
    # One entry inside a row of each of two k, for f = S_2 S_1^*, the 4th f
    # of 21 in tracesplit_sweep(2, 2), whose legs differ, so that a label
    # that swapped them would differ: tau_delta(pi(f) Phi_-1) and
    # tau_tilde(pi(f) Phi_1) plus one, so a block that compared only one of
    # its two rows would pass one k.  The sweep reads its rows from
    # endos._split_table; the oracle reads each case's legs from
    # endos.compose_left_mult, which takes extra legs a Theta_{S_1,S_1} +
    # b Theta_{1,1}, whose traces are (a + b, a/2 + b).  Both tell k by the
    # last phi_k_endo call.
    phi_k_endo, split_table, compose_left_mult = endos.phi_k_endo, endos._split_table, endos.compose_left_mult
    marked = monomial(2, (2,), (1,)).terms
    bumps = {-1: ((0, 1), (-2, 2)), 1: ((1, 0), (2, -1))}  # k -> ((tilde, delta) bumps, (a, b))
    last = []

    def phi(k, n):
        last[:] = [k]
        return phi_k_endo(k, n)

    def table(n, legs, rows):
        tildes, deltas = split_table(n, legs, rows)
        for j, f in enumerate(rows):
            if last[0] in bumps and f == marked:
                (t, d), _ = bumps[last[0]]
                tildes[j], deltas[j] = tildes[j] + t, deltas[j] + d
        return tildes, deltas

    def composed(f, e):
        out = compose_left_mult(f, e)
        if last[0] not in bumps or f.terms != marked:
            return out
        _, (a, b) = bumps[last[0]]
        s1, unit = monomial(2, (1,), ()), one(2)
        return out + endos.EndoSum(2, [(a, endos.RankOne(s1, s1)), (b, endos.RankOne(unit, unit))])

    monkeypatch.setattr(endos, "phi_k_endo", phi)
    monkeypatch.setattr(endos, "_split_table", table)
    monkeypatch.setattr(endos, "compose_left_mult", composed)


MUTANTS = {
    "sigma_identity": _sigma_identity,
    "delta_negated": _delta_negated,
    "commutator_dropped": _commutator_dropped,
    "gauge_off_by_one": _gauge_off_by_one,
    "gauge_drops_degree_two": _gauge_drops_degree_two,
    "phi_weight_dropped": _phi_weight_dropped,
    "s_identity": _s_identity,
    "pairing_without_adjoint": _pairing_without_adjoint,
    "mid_row_entries_bumped": _mid_row_entries_bumped,
    "split_entry_bumped": _split_entry_bumped,
}

# (sweep, mutant) for every mutant that reaches the sweep; None is clean code.
CASES = [
    ("kms", None),
    ("tomita", None),
    ("kms_n3", None),  # three letters: pairing-table keys the n = 2 sweeps never index
    ("tomita_n3", None),
    ("keyfact", None),
    ("keyfact_n3", None),  # three letters: probes the two-letter sweeps never build
    ("kms", "sigma_identity"),
    ("kms", "delta_negated"),  # sigma is Delta^(-1)
    ("tomita", "delta_negated"),  # fails the polar decompositions only
    ("tomita", "s_identity"),  # fails the intertwining checks first, with their z
    ("tomita", "pairing_without_adjoint"),  # fails the pair checks, the first with their z
    ("kms", "mid_row_entries_bumped"),  # two failures inside most rows, one past the first
    ("tomita", "mid_row_entries_bumped"),  # a row's failures interleave its identities by b
    ("keyfact", "gauge_off_by_one"),
    ("keyfact", "gauge_drops_degree_two"),  # fails from the 10th case on, with its (mu, nu, k)
    ("tracesplit", None),
    ("tracesplit_n3", None),  # three letters: legs of Phi_k the two-letter sweep never builds
    ("tracesplit", "phi_weight_dropped"),
    ("tracesplit", "split_entry_bumped"),  # one f inside the rows of k = -1 and k = 1
    ("tracesplit_len0", None),  # f = 1 alone: the empty word meets every leg in the index
    ("tracesplit_len0", "phi_weight_dropped"),
    ("cocycle", None),
    ("cocycle_n3", None),  # three letters: table keys the n = 2 sweep never indexes
    ("cocycle", "sigma_identity"),
    ("cocycle", "delta_negated"),
    ("cocycle", "commutator_dropped"),
]


@pytest.mark.parametrize("sweep, mutant", CASES)
def test_sweep_report_matches_the_per_case_oracle(monkeypatch, sweep, mutant):
    fast, oracle, args, cases = SWEEPS[sweep]
    if mutant:
        MUTANTS[mutant](monkeypatch)
    report = fast(*args)
    assert report == oracle(*args)
    assert report["cases"] == cases
    if mutant:
        assert report["failures"] > 0 and report["first_failures"]
    else:
        assert report["failures"] == 0


def test_keyfact_failures_come_in_case_order(monkeypatch):
    _gauge_drops_degree_two(monkeypatch)
    assert endos.keyfact_sweep(2, 2)["first_failures"][:2] == ["v=S_()S*_(1,) k=2", "v=S_()S*_(2,) k=2"]


def test_tracesplit_failures_inside_a_row_come_in_case_order(monkeypatch):
    _split_entry_bumped(monkeypatch)
    assert endos.tracesplit_sweep(2, 2)["first_failures"] == [
        "trace split tau_delta f=S_(2,)S*_(1,) k=-1", "trace split tau_tilde f=S_(2,)S*_(1,) k=1"]


def _passing_label():
    raise AssertionError("the label of a passing case was called")


@sweep("toy")
def _toy_sweep(size: int):
    """Cases 0..size-1; only case 3 passes, inside the span the first failures cover."""
    for i in range(size):
        yield case(True, _passing_label) if i == 3 else case(False, lambda: f"i={i}")


def _unread_label():
    raise AssertionError("a label the report does not show was called")


@sweep("toy_blocks")
def _toy_block_sweep():
    """One-case and wider blocks mixed: 9 failures over 26 cases, a block
    counting its rows times their width.  A block with no rows, one whose
    rows have width 0 and one that passes count 0, 0 and 3 cases and read
    no label.  Block "a" fails in its last two of three rows, so its labels
    come j-major, t-minor across them; its first row passes, and the label
    refuses a case that holds.  The report's first five end at block "b"'s
    first failure; its later failing cases hold "late", which the label
    refuses, like the last one-case block's.  The label reads the block's
    name and rows from the generator, so a runner that called it after the
    generator moved on would read the next block's."""
    yield case(False, lambda: "pair 0")
    yield [], _unread_label
    yield [([], []), ([], [])], _unread_label
    yield [([1, 2, 3], [1, 2, 3])], _unread_label
    yield case(True, _unread_label)

    def label(j, t):
        got = rows[t][j]
        assert got != want[j], "the label of a passing case was called"
        assert got != "late", "a label the report does not show was called"
        return f"{name} j={j} t={t} got={got}"

    want = [0, 1, 2, 3]
    # block "a"'s row 1 holds at j = 0 by == alone: float(0) is not 0
    for name, rows in (("a", [want, [float(0), 9, 2, 9], [9, 1, 2, 3]]),
                       ("b", [[9, "late", 2, 3], ["late", 1, "late", 3]])):
        yield [(got, want) for got in rows], label
    yield case(False, _unread_label)


def test_runner_counts_blocks_and_pairs_alike():
    assert _toy_block_sweep() == {
        "check": "toy_blocks",
        "cases": 26,
        "failures": 9,
        "first_failures": ["pair 0", "a j=0 t=2 got=9", "a j=1 t=1 got=9", "a j=3 t=1 got=9", "b j=0 t=0 got=9"],
    }


def test_kms_failures_inside_a_row_come_in_case_order(monkeypatch):
    # Row a = 1 fails at b = S_1 S_11^* (column 10) and at the last b, and so does row a = S_1^*.
    _mid_row_entries_bumped(monkeypatch)
    first = modular.kms_sweep(2, 2)["first_failures"]
    assert [label.split(" psi")[0] for label in first[:3]] == [
        "a=<O_2: I> b=<O_2: S[1].S[1,1]'>",
        "a=<O_2: I> b=<O_2: S[2,2].S[2,2]'>",
        "a=<O_2: S[1]'> b=<O_2: S[1].S[1,1]'>",
    ]


def test_runner_counts_cases_and_labels_the_first_failures():
    # Each label reads its own i: a runner that called it after advancing
    # the generator would read the next case's i.
    assert _toy_sweep(8) == {
        "check": "toy",
        "size": 8,
        "cases": 8,
        "failures": 7,
        "first_failures": ["i=0", "i=1", "i=2", "i=4", "i=5"],
    }
