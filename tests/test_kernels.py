"""The sorted-sweep lattice kernels against the probe-based kernels they
replaced, and the edge cases the sweep fixes: breakpoints at or above
2**53 and sums that overflow to +inf."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from pmspace import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    evaluate,
    leq,
    leq_witness,
    make_step_cdf,
    parse_document,
    pointwise_sup,
    quantize,
    sup_convolution,
)
from pmspace.cli import run_command

from oracles import bisect_sup_convolution, cell_quantize, probe_leq_witness, probe_pointwise_sup
from strategies import cdfs, near_ties

ALL_TNORMS = [MINIMUM, PRODUCT, LUKASIEWICZ]


pairs = st.one_of(st.tuples(cdfs(), cdfs()), near_ties(), st.tuples(cdfs(8), cdfs(8)))


class TestAgainstProbeKernels:
    @pytest.mark.parametrize("T", ALL_TNORMS)
    @given(pair=pairs)
    def test_sup_convolution(self, T, pair):
        F, L = pair
        assert sup_convolution(T, F, L).breaks == bisect_sup_convolution(T, F, L).breaks
        assert sup_convolution(T, L, L).breaks == bisect_sup_convolution(T, L, L).breaks

    @pytest.mark.parametrize("T", ALL_TNORMS)
    def test_chain_within_tol_is_one_breakpoint(self, T):
        # neighbours 7e-13 apart chain into one breakpoint spanning 1.4e-12
        fam = [make_step_cdf([(1.0 + k * 7e-13, 0.25 * (k + 1))]) for k in range(3)]
        assert pointwise_sup(fam).breaks == probe_pointwise_sup(fam).breaks == ((1.0, 0.75),)
        F = make_step_cdf([(0.0, 0.25), (1.0, 0.5), (2.0, 1.0)])
        L = make_step_cdf([(0.0, 0.25), (1.0 - 7e-13, 0.5), (2.0 - 1.4e-12, 1.0)])
        assert sup_convolution(T, F, L).breaks == bisect_sup_convolution(T, F, L).breaks

    @given(pair=pairs, rest=st.lists(cdfs(), max_size=3))
    def test_pointwise_sup(self, pair, rest):
        fam = list(pair) + rest
        assert pointwise_sup(fam).breaks == probe_pointwise_sup(fam).breaks

    @given(pair=pairs)
    def test_leq_witness(self, pair):
        F, G = pair
        assert leq_witness(F, G) == probe_leq_witness(F, G)
        assert leq_witness(G, F) == probe_leq_witness(G, F)

    @given(pair=pairs, delta=st.one_of(st.sampled_from([0.5, 0.25, 0.1, 0.05, 0.01]), st.floats(1e-3, 1.0)))
    def test_quantize(self, pair, delta):
        for F in pair:
            assert quantize(F, delta).breaks == cell_quantize(F, delta).breaks


class TestHugeBreakpoints:
    def test_final_interval_witness_beyond_2_53(self):
        F, G = make_step_cdf([(1e17, 1.0)]), make_step_cdf([(1e17, 0.5)])
        w = leq_witness(F, G)
        assert w is not None and not leq(F, G)
        assert evaluate(F, w) > evaluate(G, w) + 1e-12

    def test_final_interval_witness_below_2_53(self):
        F, G = make_step_cdf([(2.0, 1.0)]), make_step_cdf([(2.0, 0.5)])
        assert leq_witness(F, G) == 3.0

    def test_sup_keeps_jump_beyond_2_53(self):
        got = pointwise_sup([make_step_cdf([(1e17, 0.5)]), make_step_cdf([(2e17, 1.0)])])
        assert got.breaks == ((1e17, 0.5), (2e17, 1.0))


class TestOverflow:
    BIG = [[1.7e308, 1.0]]

    @pytest.mark.parametrize("T", ALL_TNORMS)
    def test_sum_beyond_every_float_is_dropped(self, T):
        F = make_step_cdf(self.BIG)
        assert sup_convolution(T, F, F).breaks == ()
        G = make_step_cdf([(0.0, 0.5), (1.7e308, 1.0)])
        assert sup_convolution(T, G, G) == sup_convolution(T, G, make_step_cdf([(0.0, 0.5)]))

    def test_cli_conv_output_round_trips(self, capsys, tmp_path):
        f = tmp_path / "a.cdf"
        f.write_text('{"kind":"cdf","points":[[1.7e308,1.0]]}')
        out_path = tmp_path / "out.cdf"
        assert run_command(["conv", str(f), str(f), "--out", str(out_path)]) == 0
        text = out_path.read_text()
        assert parse_document(text).payload.breaks == ()
        assert run_command(["sup", str(out_path), str(f)]) == 0
        assert parse_document(capsys.readouterr().out).payload.breaks == ((1.7e308, 1.0),)


class TestTinyGrid:
    @pytest.mark.parametrize("delta", [1e-12, 2e-12, 5e-13])
    def test_quantize_below_tolerance_grid_is_canonical(self, delta):
        F = make_step_cdf([(5.0677e-10, 0.3), (5.0787e-10, 0.6)])
        Q = quantize(F, delta)
        # grid cells within TOL of each other are one canonical breakpoint
        assert make_step_cdf(Q.breaks) == Q
