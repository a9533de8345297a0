"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st


def exact_rows(pre_normalize):
    """Feature rows on which every implementation computes exact distances.

    Small integers have exact squared distances. For pre-normalized runs,
    rows of four equal-magnitude signed entries or one non-zero entry have
    exact unit rows (entries 0, +-0.5, +-1), so every distance is a multiple
    of 0.25. Exact distances make ties exact in the package and the oracle.
    """
    if not pre_normalize:
        return st.lists(st.integers(-3, 3).map(float), min_size=4, max_size=4)
    scale = st.sampled_from([0.5, 1.0, 4.0])
    spread = st.tuples(
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4), scale
    ).map(lambda t: [s * t[1] for s in t[0]])
    single = st.tuples(st.integers(0, 3), st.sampled_from([-1.0, 1.0]), scale).map(
        lambda t: [t[1] * t[2] if i == t[0] else 0.0 for i in range(4)]
    )
    return st.one_of(spread, single, st.just([0.0] * 4))
