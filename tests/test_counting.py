"""Cost-session tests: what one charge adds, and where it goes."""

import numpy as np

from gemfilter.counting import PROMPT, CostSession, count_matmul


class TestCountMatmul:
    def test_charges_two_flops_per_multiply_add(self):
        session = CostSession()
        with session.activate():
            count_matmul("proj", 2, 2, 2)
        assert session.phase_cost(PROMPT).flops_by_tag == {"proj": 16}

    def test_composite_flop_counter_is_exact_sum(self):
        rng = np.random.default_rng(0)
        session = CostSession()
        expected = 0
        with session.activate():
            for _ in range(50):
                m, k, n = (int(x) for x in rng.integers(1, 12, size=3))
                count_matmul("mlp", m, k, n)
                expected += 2 * m * k * n
        assert session.phase_cost(PROMPT).matmul_flops == expected

    def test_no_session_no_counting(self):
        session = CostSession()
        count_matmul("proj", 3, 3, 3)  # before any session is active
        with session.activate():
            count_matmul("proj", 1, 1, 1)
        count_matmul("proj", 3, 3, 3)  # after the session is deactivated
        assert session.total_flops == 2
