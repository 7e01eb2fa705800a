import math

import numpy as np
import pytest

from randquad.integrands import affine_integrand, constant_integrand, power_integrand
from randquad.quadrature import (
    EvaluationError,
    Integrand,
    Partition,
    ctq,
    make_partition,
    rtq,
    rtq_prefix,
)
from randquad.random_sources import RngStream, sample_tau_sequence


def square_integrand():
    return Integrand(evaluator=lambda t: np.asarray(t, dtype=float) ** 2, label="t^2")


class TestMakePartition:
    def test_quarter_grid(self):
        part = make_partition(4)
        assert part.step == 0.25
        np.testing.assert_array_equal(part.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_dyadic_step(self):
        assert make_partition(2**5).step == 2.0**-5

    def test_single_interval(self):
        part = make_partition(1)
        assert part.step == 1.0
        np.testing.assert_array_equal(part.nodes, [0.0, 1.0])

    @pytest.mark.parametrize("N", [3, 11, 97, 1000])
    def test_invariants(self, N):
        part = make_partition(N)
        assert abs(part.step * N - 1.0) <= 4 * np.spacing(1.0)
        assert part.nodes[0] == 0.0
        assert part.nodes[-1] == 1.0
        assert np.all(np.diff(part.nodes) > 0)
        assert part.nodes.size == N + 1

    def test_nodes_are_derived_from_the_cell_count(self):
        # A partition once stored nodes beside its count: CTQ on 4 cells
        # with 9 nodes gave 0.8036 for t^1.5 against 0.4070, unremarked.
        part = Partition(intervals=4)
        assert ctq(power_integrand(1.5), part).value == ctq(power_integrand(1.5), make_partition(4)).value
        np.testing.assert_array_equal(part.nodes, np.linspace(0.0, 1.0, 5))
        assert part.nodes is part.nodes and not part.nodes.flags.writeable
        with pytest.raises(TypeError):
            Partition(intervals=4, nodes=np.linspace(0.0, 1.0, 9))

    @pytest.mark.parametrize("N", [0, -3, 2.5, float("nan"), float("inf")])
    def test_rejects_bad_arguments(self, N):
        # inf once raised a bare OverflowError from int(), nan a bare
        # "cannot convert float NaN to integer".
        with pytest.raises(ValueError, match="intervals must be an integer of at least 1"):
            make_partition(N)


class TestCtq:
    def test_constant_exact(self):
        g = constant_integrand(3.5)
        for n in (1, 2, 7, 64):
            q = ctq(g, make_partition(n))
            assert q.value == 3.5

    def test_affine_exact(self):
        g = affine_integrand(0.0, 1.0)
        q = ctq(g, make_partition(4))
        assert q.value == 0.5

    def test_square_hand_value(self):
        q = ctq(square_integrand(), make_partition(2))
        assert q.value == 0.375
        assert q.rule == "CTQ"

    def test_evaluation_count_literal_and_shared(self):
        g = square_integrand()
        part = make_partition(8)
        assert ctq(g, part).evaluations == 16

    def test_integrands_are_scalar_valued(self):
        pair = Integrand(evaluator=lambda t: np.stack([t, 3.0 - 2.0 * t], axis=-1), label="pair")
        with pytest.raises(ValueError, match="returned shape"):
            ctq(pair, make_partition(4))

    def test_nonfinite_names_node(self):
        def evil(t):
            t = np.asarray(t, dtype=float)
            out = t.copy()
            out[t == 0.5] = np.inf
            return out

        g = Integrand(evaluator=evil, label="evil")
        with pytest.raises(EvaluationError, match="0.5"):
            ctq(g, make_partition(2))

    def test_nonfinite_in_a_batch_names_the_single_node(self):
        def evil(t):
            t = np.asarray(t, dtype=float)
            return np.where(t == 0.0625, np.nan, t)

        g = Integrand(evaluator=evil, label="evil")
        tau = [[0.5, 0.5, 0.5, 0.5], [0.25, 0.5, 0.5, 0.5]]
        with pytest.raises(EvaluationError) as info:
            rtq(g, make_partition(4), tau)
        message = str(info.value)
        assert "t=" in message and "0.0625" in message
        assert "[" not in message  # one node, not a whole row of times

    @pytest.mark.parametrize("c", [1e308, 6e307], ids=["cell-term", "sum"])
    def test_finite_values_whose_rule_overflows_raise(self, c):
        # Both once returned NaN: g(a) + g(b) overflows at 1e308, and the sum
        # of four finite cell terms at 6e307.  numpy's overflow and
        # invalid-value warnings came first; they would repeat the error.
        with pytest.raises(EvaluationError, match="CTQ cell terms or their sum overflow"):
            ctq(constant_integrand(c), make_partition(4))

    def test_overflow_in_one_row_of_a_batch_raises(self):
        def spiky(t):
            t = np.asarray(t, dtype=float)
            return np.where((t == 0.0625) | (t == 0.1875), 1.7e308, t)

        g = Integrand(evaluator=spiky, label="spiky")
        tau = [[0.5, 0.5, 0.5, 0.5], [0.25, 0.5, 0.5, 0.5]]
        assert math.isfinite(rtq(g, make_partition(4), tau[0]).value)
        for rule, offsets in ((rtq, tau), (rtq_prefix, tau[1])):
            with pytest.raises(EvaluationError, match="'spiky' has finite values"):
                rule(g, make_partition(4), offsets)

    # One finiteness check of the rule value covers both evaluation points;
    # only a failed check looks for the node, g(a) first, then g(b).
    @staticmethod
    def planted(values):
        def evaluator(t):
            t = np.asarray(t, dtype=float)
            out = t.copy()
            for node, value in values.items():
                out[t == node] = value
            return out

        return Integrand(evaluator=evaluator, label="planted")

    def test_nonfinite_second_point_in_a_later_row_names_its_node(self):
        tau = [[0.5] * 4, [0.5] * 4, [0.25, 0.5, 0.5, 0.5]]  # g(b) at 0.1875 only in row 2
        with pytest.raises(EvaluationError, match=r"non-finite value at node t=0\.1875$"):
            rtq(self.planted({0.1875: np.nan}), make_partition(4), tau)

    def test_ctq_infinite_only_at_the_last_node(self):
        with pytest.raises(EvaluationError, match=r"non-finite value at node t=1\.0$"):
            ctq(self.planted({1.0: np.inf}), make_partition(4))

    def test_prefix_infinite_in_its_last_cell(self):
        with pytest.raises(EvaluationError, match=r"non-finite value at node t=0\.875$"):
            rtq_prefix(self.planted({0.875: np.inf}), make_partition(4), [0.5] * 4)

    def test_nan_in_one_row_is_named_before_an_overflow_in_another(self):
        # Row 0 overflows at cell 0 (0.0625 and 0.1875); row 1 has NaN at g(b) of cell 3.
        g = self.planted({0.0625: 1.7e308, 0.1875: 1.7e308, 0.8125: np.nan})
        tau = [[0.25, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.75]]
        with pytest.raises(EvaluationError, match=r"non-finite value at node t=0\.8125$"):
            rtq(g, make_partition(4), tau)
        with pytest.raises(EvaluationError, match="'planted' has finite values"):
            rtq(g, make_partition(4), tau[0])


class TestRtq:
    @pytest.mark.parametrize("rule", [rtq, rtq_prefix])
    @pytest.mark.parametrize(
        "tau",
        [
            [0.5, 0.0], [1.0], [0.5, float("nan")], [0.5, 1e-20], [2.0**-54],
            [-0.25], [1.5], [0.5, float("inf")], [float("-inf")],
        ],
    )
    def test_rejects_endpoints(self, rule, tau):
        # 1e-20 and 2^-54 lie inside (0, 1), but their complements round to 1.0.
        with pytest.raises(ValueError, match="strictly inside"):
            rule(square_integrand(), make_partition(len(tau)), tau)

    @pytest.mark.parametrize("rule", [rtq, rtq_prefix])
    @pytest.mark.parametrize(
        "tau", [[], np.empty((0, 4)), 0.5, np.full((1, 1, 4), 0.5), [0.5] * 3, np.full((2, 3), 0.5)]
    )
    def test_rejects_empty(self, rule, tau):
        with pytest.raises(ValueError, match="1-d or 2-d with at least 4 offsets per row"):
            rule(square_integrand(), make_partition(4), tau)

    def test_constant_exact_for_any_tau(self):
        g = constant_integrand(2.0)
        tau = [0.123, 0.9, 0.5, 0.0001 + 0.3]
        assert rtq(g, make_partition(4), tau).value == 2.0

    def test_affine_exact_because_offsets_reflect(self):
        g = affine_integrand(1.0, -2.0)
        exact = g.exact_integral
        rng = np.random.default_rng(11)
        for n in (1, 2, 32):
            tau = rng.uniform(0.01, 0.99, size=n)
            value = rtq(g, make_partition(n), tau).value
            # rounding unit: the accumulated magnitude |a|T + |b|T^2/2
            assert abs(value - exact) <= 8 * np.spacing(2.0)

    def test_square_single_cell_hand_value(self):
        tau = [0.25]
        q = rtq(square_integrand(), make_partition(1), tau)
        assert q.value == 0.3125
        assert q.rule == "RTQ"
        assert q.evaluations == 2

    def test_short_tau_rejected_extra_ignored(self):
        g = square_integrand()
        part = make_partition(4)
        with pytest.raises(ValueError):
            rtq(g, part, [0.5, 0.5])
        long_tau = [0.3] * 10
        short_tau = [0.3] * 4
        assert rtq(g, part, long_tau).value == rtq(g, part, short_tau).value

    def test_complement_symmetry_is_bitwise(self):
        g = power_integrand(1.5)
        part = make_partition(64)
        tau = sample_tau_sequence(RngStream(99), 64)
        assert rtq(g, part, tau).value == rtq(g, part, 1.0 - tau).value

    def test_determinism_across_regeneration(self):
        g = power_integrand(1.25)
        part = make_partition(32)
        a = rtq(g, part, sample_tau_sequence(RngStream(5, 17), 32)).value
        b = rtq(g, part, sample_tau_sequence(RngStream(5, 17), 32)).value
        assert a == b


class TestRtqBatch:
    def test_each_row_equals_its_own_rule_bitwise(self):
        g = power_integrand(1.5)
        part = make_partition(64)
        rows = [sample_tau_sequence(RngStream(3, i), 64) for i in range(5)]
        batch = rtq(g, part, np.stack(rows))
        assert batch.evaluations == 5 * 2 * 64
        singles = [rtq(g, part, row).value for row in rows]
        np.testing.assert_array_equal(batch.value.view(np.int64), np.array(singles).view(np.int64))

    def test_prefix_rejects_a_batch(self):
        tau = np.full((2, 4), 0.5)
        with pytest.raises(ValueError, match="single offset sequences"):
            rtq_prefix(power_integrand(1.5), make_partition(4), tau)


class TestRtqPrefix:
    def test_constant_prefix_values(self):
        g = constant_integrand(1.0)
        tau = [0.2, 0.4, 0.6, 0.8]
        values = rtq_prefix(g, make_partition(4), tau).value.tolist()
        assert values == [0.25, 0.5, 0.75, 1.0]

    def test_last_element_bitwise_equals_rtq(self):
        g = power_integrand(1.75)
        part = make_partition(128)
        tau = sample_tau_sequence(RngStream(421), 128)
        assert rtq_prefix(g, part, tau).value[-1] == rtq(g, part, tau).value

    def test_linear_prefix_independent_of_tau(self):
        g = affine_integrand(0.0, 1.0)
        for seed in (1, 2, 3):
            tau = sample_tau_sequence(RngStream(seed), 2)
            values = rtq_prefix(g, make_partition(2), tau).value.tolist()
            assert values == pytest.approx([0.125, 0.5], rel=1e-14)

    def test_prefix_increment_is_cell_contribution(self):
        g = power_integrand(1.5)
        part = make_partition(50)
        tau = sample_tau_sequence(RngStream(8), 50)
        prefix = rtq_prefix(g, part, tau)
        half = 0.5 * part.step
        prev = 0.0
        for n, q in enumerate(prefix.value):
            t = part.nodes[n]
            cell = half * (
                g.evaluator(np.array([t + tau[n] * part.step]))[0]
                + g.evaluator(np.array([t + (1.0 - tau[n]) * part.step]))[0]
            )
            assert q - prev == pytest.approx(cell, rel=1e-12, abs=1e-15)
            prev = q

    def test_evaluation_counts(self):
        g = square_integrand()
        tau = [0.5] * 3
        assert rtq_prefix(g, make_partition(3), tau).evaluations == 6

