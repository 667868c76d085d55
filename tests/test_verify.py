import numpy as np
import pytest

import trifuse.fusion
from trifuse.errors import ConfigError
from trifuse.verify import PROPERTIES, run_verification


class TestProperties:
    def test_every_property_passes(self):
        summary = run_verification(n_seeds=3, base_seed=0)
        assert len(summary) == len(PROPERTIES) == 16
        for name, res in summary.items():
            assert res["failed"] == [], f"{name} failed on seeds {res['failed']}"
            assert res["passed"] == 3

    def test_deterministic(self):
        a = run_verification(n_seeds=2, base_seed=5)
        b = run_verification(n_seeds=2, base_seed=5)
        assert a == b

    @pytest.mark.parametrize("n_seeds", [0, -3])
    def test_no_seeds_is_a_config_error(self, n_seeds):
        # a run of no seed would report every property as passed
        with pytest.raises(ConfigError, match=f"^seeds must be >= 1, got {n_seeds}$"):
            run_verification(n_seeds=n_seeds)

    def test_property_names_unique(self):
        names = [n for n, _ in PROPERTIES]
        assert len(set(names)) == len(names)


class TestSuiteCatchesMutations:
    def test_broken_gating_is_detected(self, monkeypatch):
        # sanity check that the suite has teeth: a gating implementation that
        # leaks a constant into the identity path must be flagged
        real = trifuse.fusion.mage

        def leaky(xa, xb, params, p, **kw):
            ra, rb, gates = real(xa, xb, params, p, **kw)
            return ra + np.float32(1e-3), rb, gates

        monkeypatch.setattr(trifuse.fusion, "mage", leaky)
        summary = run_verification(n_seeds=2, base_seed=0)
        assert summary["mage_zero_gate_identity"]["failed"] == [0, 1]

    def test_broken_switch_is_detected(self, monkeypatch):
        real = trifuse.fusion.cssa_switch

        def inverted(xa, xb, sa, sb, tau):
            return real(xa, xb, sa, sb, 1.0 - tau)

        monkeypatch.setattr("trifuse.verify.cssa_switch", inverted)
        summary = run_verification(n_seeds=2, base_seed=0)
        assert summary["cssa_swap_monotone_in_tau"]["failed"] == [0, 1]
