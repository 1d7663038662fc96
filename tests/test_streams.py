"""item_uniforms against numpy: one Generator per item, compared by float.hex."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprice import streams


def numpy_uniforms(seed, counts):
    """The reference: one Generator per item, float.hex of each double."""
    return [x.hex() for i, k in enumerate(counts)
            for x in np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            .random(k).tolist()]


# run seeds of one 32-bit word, and at or just past 2**32, 2**64, 2**128,
# 2**160, 2**192 and 2**288 (two, three, five, six, seven and ten words: each
# word past the pool's four steps the hash constant four more times), as
# Python and as numpy integers
seeds = st.one_of(
    st.integers(0, 2**32 - 1),
    st.tuples(st.sampled_from([2**32, 2**64, 2**128, 2**160, 2**192, 2**288]),
              st.integers(0, 2**40))
    .map(lambda bt: bt[0] + bt[1]),
    st.integers(2**128, 2**320 - 1),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
)


class TestItemUniforms:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=seeds, counts=st.lists(st.integers(1, 5), min_size=1, max_size=600))
    @example(seed=0, counts=[1] * 600)
    @example(seed=2**128 - 1, counts=[5, 1, 3])
    @example(seed=2**160, counts=[1, 2])
    @example(seed=2**320 - 1, counts=[3] * 7)
    @example(seed=np.uint64(2**64 - 1), counts=[2] * 40)
    def test_equals_numpy_streams(self, seed, counts):
        got = [x.hex() for x in streams.item_uniforms(seed, counts)]
        assert got == numpy_uniforms(seed, counts)


class TestLastAnswerKept:
    def test_an_immutable_sequence_equal_to_numpy(self):
        got = streams.item_uniforms(7, [2, 1, 3])
        assert isinstance(got, tuple)
        assert [x.hex() for x in got] == numpy_uniforms(7, [2, 1, 3])
        # numpy integers and any sequence of counts name the same answer
        assert streams.item_uniforms(np.uint64(7), np.array([2, 1, 3])) is got

    def test_balance_then_ranking_at_k1_step_pcg64_once(self):
        from multiprice import build_instance, build_value_function, run_balance, run_ranking

        inst = build_instance(build_value_function([1.0, 3.0]), 20, 1, 5)
        streams._item_uniforms.cache_clear()
        run_balance(inst.setup, inst.arrivals, 5)
        run_ranking(inst.setup, inst.arrivals, 5)
        info = streams._item_uniforms.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        run_ranking(inst.setup, inst.arrivals, 6)  # another seed steps afresh
        assert streams._item_uniforms.cache_info().misses == 2
