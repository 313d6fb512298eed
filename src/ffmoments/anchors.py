"""Registry of check identifiers used in report rows.

Every emitted report row carries one of these anchors; the registry guards
against orphaned or misspelled check labels (a row with an unregistered
anchor is a bug, and a registered anchor no suite emits is dead weight).
"""

CHECK_ANCHORS = frozenset(
    {
        # prime counting and prime sums
        "Lemma 2.2",
        "log-weighted prime sum",
        "reciprocal prime sum",
        "Lemma 2.3",
        "F partial sum",
        "prime power tail",
        # L-polynomial structure and pointwise bounds
        "degree bound",
        "RH roots",
        "conjugation",
        "explicit formula",
        "Prop 3.1",
        "simplified log-L bound",
        "Prop 3.2",
        "single-L bound",
        # moments
        "Thm 1.1 zeta",
        "Thm 1.1 min",
        "Cor 1.2",
        "Prop 3.3",
        "Thm 1.3",
        "Prop 4.1",
        "Lemma 2.4",
        # a witness translate Q(T + b) against its orbit's representative Q
        "translation",
        # artifact plumbing
        "plumbing/ring",
        "plumbing/factorization",
        "plumbing/unit-group",
        "plumbing/primitive-count",
    }
)
