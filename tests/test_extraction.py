"""Bucketing, diagonal subsequence extraction, uniform-convergence
verification, and the converse direction through distance embeddings."""

import random

import pytest

from pmspace import (
    LipschitzMap,
    converse_compactness_witness,
    delta_embed,
    extract_uniform_subsequence,
    gen_space,
    heaviside,
    is_one_lipschitz,
    levy_distance,
    levy_to_h0,
    make_step_cdf,
    random_lipschitz_map,
    select_cauchy_subsequence,
    sup_convolution,
    uniform_distance,
    verify_uniform_convergence,
)
from pmspace.errors import DomainMismatch, IndexOutOfRange, InsufficientSequence
from pmspace.tnorms import MINIMUM

from test_spaces import heaviside_space


class TestSelectCauchySubsequence:
    def test_constant_sequence_keeps_everything(self):
        F = make_step_cdf([(1, 0.5), (2, 1)])
        assert select_cauchy_subsequence([F] * 7, 0.1) == list(range(7))

    def test_shrinking_heaviside_family(self):
        seq = [heaviside(1 / n) for n in range(1, 101)]
        sel = select_cauchy_subsequence(seq, 0.2)
        assert len(sel) >= 20
        for a in sel:
            for b in sel:
                assert levy_distance(seq[a], seq[b]) <= 0.2 + 1e-9

    def test_two_clusters(self):
        seq = [heaviside(0.01 * (k % 3)) for k in range(50)] + [
            heaviside(1.0 + 0.01 * (k % 3)) for k in range(50)
        ]
        sel = select_cauchy_subsequence(seq, 0.3)
        assert len(sel) >= 50
        side = {i < 50 for i in sel}
        assert len(side) == 1  # never mixes the clusters

    def test_bucket_soundness_random(self):
        rng = random.Random(3)
        from pmspace import random_step_cdf

        for eps in (0.5, 0.2, 0.1):
            seq = [random_step_cdf(rng) for _ in range(60)]
            sel = select_cauchy_subsequence(seq, eps)
            for a in sel:
                for b in sel:
                    assert levy_distance(seq[a], seq[b]) <= eps + 1e-9

    def test_empty_sequence(self):
        with pytest.raises(InsufficientSequence):
            select_cauchy_subsequence([], 0.2)


class TestExtractUniformSubsequence:
    def test_constant_maps(self):
        sp = gen_space(1, 4, "metric")
        f = random_lipschitz_map(sp, random.Random(1))
        report = extract_uniform_subsequence(sp, [f] * 9, 0.1)
        assert report.selected == tuple(range(9))
        assert report.limit is f
        assert report.pairwise_dinf == 0.0
        assert report.success

    def test_cycling_embeddings_pick_one_point(self):
        sp = heaviside_space([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        maps = [delta_embed(sp, sp.points[n % 3]) for n in range(30)]
        report = extract_uniform_subsequence(sp, maps, 0.2)
        assert report.success
        chosen = {n % 3 for n in report.selected}
        assert len(chosen) == 1

    def test_random_maps_successful_and_sound(self):
        sp = gen_space(42, 6, "metric")
        rng = random.Random(5)
        maps = [random_lipschitz_map(sp, rng) for _ in range(120)]
        report = extract_uniform_subsequence(sp, maps, 0.05)
        assert report.success and report.lipschitz_ok
        # re-verify everything the report claims, from scratch
        assert is_one_lipschitz(sp, report.limit)
        worst = max(
            uniform_distance(maps[a], maps[b], sp.points)
            for a in report.selected
            for b in report.selected
        )
        assert worst <= 0.05 + 1e-9
        assert worst == pytest.approx(report.pairwise_dinf, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.5, 0.2, 0.1, 0.05])
    def test_converging_sequence_clusters_distinct_maps(self, eps):
        # f_j = tau_min(H(2^-j), g) shifts g right by 2^-j, so the selected
        # maps are distinct and their pairwise distance is positive
        sp = gen_space(3, 5, "repair")
        g = random_lipschitz_map(sp, random.Random(1))
        maps = [
            LipschitzMap(sp, {x: sup_convolution(MINIMUM, heaviside(2.0**-j), g[x]) for x in sp.points})
            for j in range(1, 13)
        ]
        report = extract_uniform_subsequence(sp, maps, eps)
        assert report.pairwise_dinf > 0.0
        assert report.pairwise_dinf == max(
            uniform_distance(maps[a], maps[b], sp.points)
            for a in report.selected
            for b in report.selected
        )
        assert report.success

    def test_empty_input(self):
        sp = gen_space(1, 3, "metric")
        with pytest.raises(InsufficientSequence):
            extract_uniform_subsequence(sp, [], 0.1)

    def test_foreign_map_rejected(self):
        sp = gen_space(1, 3, "metric")
        other = gen_space(2, 4, "metric")
        f = random_lipschitz_map(other, random.Random(0))
        with pytest.raises(DomainMismatch):
            extract_uniform_subsequence(sp, [f], 0.1)


class TestVerifyUniformConvergence:
    def setup_method(self):
        self.sp = gen_space(9, 5, "metric")
        rng = random.Random(9)
        self.maps = [random_lipschitz_map(self.sp, rng) for _ in range(60)]
        self.report = extract_uniform_subsequence(self.sp, self.maps, 0.1)

    def test_extraction_limit_verifies(self):
        assert verify_uniform_convergence(
            self.sp, self.maps, self.report.selected, self.report.limit, 0.1
        )

    def test_unrelated_limit_fails(self):
        far = LipschitzMap(self.sp, {p: heaviside(5.0) for p in self.sp.points})
        ok = is_one_lipschitz(self.sp, far)
        assert ok  # constant maps are certified, but they sit far away
        assert not verify_uniform_convergence(
            self.sp, self.maps, self.report.selected, far, 0.1
        )

    def test_singleton_selection(self):
        assert verify_uniform_convergence(self.sp, self.maps, [0], self.maps[0], 0.1)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            verify_uniform_convergence(self.sp, self.maps, [len(self.maps)], self.maps[0], 0.1)


class TestConverse:
    def test_constant_walk(self):
        sp = gen_space(3, 4, "metric")
        sel, ok = converse_compactness_witness(sp, [sp.points[1]] * 12, 0.1)
        assert sel == tuple(range(12)) and ok

    def test_alternating_walk_lands_in_one_class(self):
        sp = heaviside_space([[0.0, 1.0], [1.0, 0.0]])
        walk = [sp.points[n % 2] for n in range(20)]
        sel, ok = converse_compactness_witness(sp, walk, 0.5)
        assert ok
        assert len({n % 2 for n in sel}) == 1

    def test_random_walks_on_generated_spaces(self):
        for seed in (11, 12, 13):
            sp = gen_space(seed, 8, "metric")
            rng = random.Random(seed)
            walk = [rng.choice(sp.points) for _ in range(100)]
            sel, ok = converse_compactness_witness(sp, walk, 0.1)
            assert ok and len(sel) >= 100 // len(sp)
            for i in sel:
                for j in sel:
                    assert levy_to_h0(sp.dist(walk[i], walk[j])) <= 0.1


class TestCompletenessAtDeskScale:
    def test_cauchy_map_sequences_admit_continuous_limits(self):
        # perturb a base map at dyadic scales: the sequence is Cauchy in the
        # uniform distance and its limit is the base map, which certifies
        rng = random.Random(77)
        for seed in range(5):
            sp = gen_space(seed + 50, 4, "metric")
            g = random_lipschitz_map(sp, rng)
            fs = [
                LipschitzMap(
                    sp,
                    {
                        x: sup_convolution(MINIMUM, heaviside(2.0**-k), g[x])
                        for x in sp.points
                    },
                )
                for k in range(1, 9)
            ]
            dists = [uniform_distance(fn, g, sp.points) for fn in fs]
            for k, d in enumerate(dists):
                assert d <= 2.0 ** -(k + 1) + 1e-9
            # Cauchy: consecutive distances shrink geometrically
            for a, b in zip(fs, fs[1:]):
                assert uniform_distance(a, b, sp.points) <= dists[0] + 1e-9
            assert is_one_lipschitz(sp, g)
            for x in sp.points:
                assert levy_distance(fs[-1][x], g[x]) <= 2.0**-8 + 1e-9
