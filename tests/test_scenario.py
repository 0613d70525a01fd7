import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from saginpsc.scenario import (
    OverheadCurve,
    ScenarioError,
    default_document,
    default_overhead_curve,
    generate_gt_positions,
    load_scenario,
    loads_scenario,
    scenario_to_document,
)


@pytest.fixture()
def cfg():
    return loads_scenario(default_document())


class TestUnitConversions:
    def test_noise_psd_from_dbm_per_hz(self, cfg):
        assert cfg.noise_psd == pytest.approx(3.981071705534985e-21, rel=1e-14)

    def test_beam_gain_from_db(self, cfg):
        assert cfg.sat_beam_gain == pytest.approx(316.22776601683796, rel=1e-14)

    def test_data_bytes_to_bits(self, cfg):
        assert cfg.data_bits == (524288.0,) * 4

    def test_round_trip(self, cfg):
        again = loads_scenario(scenario_to_document(cfg))
        assert again == cfg

    def test_round_trip_through_json_text(self, cfg):
        text = json.dumps(scenario_to_document(cfg))
        assert loads_scenario(text) == cfg


class TestDocumentValidation:
    def test_missing_required_field_names_it(self):
        doc = default_document()
        del doc["sat_bandwidth"]
        with pytest.raises(ScenarioError, match="sat_bandwidth"):
            loads_scenario(doc)

    def test_nonpositive_value_rejected(self):
        doc = default_document()
        doc["latency_budget"] = 0.0
        with pytest.raises(ScenarioError, match="latency_budget"):
            loads_scenario(doc)

    def test_wrong_position_count_rejected(self):
        doc = default_document()
        doc["gt_positions"] = doc["gt_positions"][:2]
        with pytest.raises(ScenarioError, match="gt_positions"):
            loads_scenario(doc)

    @pytest.mark.parametrize("field, value", [
        ("num_gts", "four"),
        ("num_gts", 2.5),
        ("num_gts", True),
        ("sat_uav_distance", "200e3"),
        ("sat_beam_gain_db", None),
        ("latency_budget", math.inf),
        ("uav_power_budget", math.inf),
        ("noise_psd_dbm_hz", math.nan),
        ("comp_energy_coeff", math.inf),
        ("altitude_range", 100.0),
        ("altitude_range", [50.0, math.inf]),
        ("beamwidth_range", [0.1]),
        ("data_bytes", [1024.0, 1024.0, math.nan, 1024.0]),
        pytest.param("data_bytes", 10 ** 400, id="data_bytes-int-past-float"),
    ])
    def test_bad_value_names_its_field(self, field, value):
        # Each of these crashed with a bare ValueError, IndexError,
        # TypeError or ZeroDivisionError, or loaded and solved to a NaN
        # energy.
        doc = default_document()
        doc[field] = value
        with pytest.raises(ScenarioError, match=f"^{field}: "):
            loads_scenario(doc)

    @pytest.mark.parametrize("position", [[10.0], [math.nan, 0.0],
                                          [0.0, -math.inf], ["1", 0.0], 5.0])
    def test_bad_gt_position_names_it(self, position):
        doc = default_document()
        doc["gt_positions"][1] = position
        with pytest.raises(ScenarioError, match=r"^gt_positions\[1\]: "):
            loads_scenario(doc)

    def test_bad_overhead_segment_names_its_curve(self):
        doc = default_document()
        doc["overhead_curves"] = [
            {"segments": [[-1e7, 2.2e7, 0.7], [-4e7, math.inf, 0.25]]}] * 4
        with pytest.raises(ScenarioError, match=r"^overhead_curves\[0\]: "):
            loads_scenario(doc)

    def test_retired_sidelobe_gain_key_is_ignored(self):
        # The model never used a sidelobe gain; documents that still carry
        # the key, negative values included, load as if it were absent.
        for value in (0.5, -1.0):
            doc = default_document()
            doc["sidelobe_gain"] = value
            assert loads_scenario(doc) == loads_scenario(default_document())
        assert "sidelobe_gain" not in scenario_to_document(
            loads_scenario(default_document()))

    def test_invalid_json_text(self):
        with pytest.raises(ScenarioError, match="invalid JSON"):
            loads_scenario("{not json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_scalar_data_bytes_broadcasts(self):
        doc = default_document()
        doc["data_bytes"] = 1024
        cfg = loads_scenario(doc)
        assert cfg.data_bits == (8192.0,) * 4

    def test_single_curve_document_broadcasts(self):
        doc = default_document()
        doc["overhead_curves"] = {
            "segments": [[-1e7, 2.2e7, 0.7], [-4e7, 4.4e7, 0.45]]}
        cfg = loads_scenario(doc)
        assert all(c.num_segments == 2 for c in cfg.overhead_curves)

    def test_beam_range_clamped_away_from_degenerate_ends(self):
        cfg = loads_scenario(default_document())
        lo, hi = cfg.beam_range_clamped
        assert lo == 1e-3
        assert hi == math.pi / 2 - 1e-3


class TestOverheadCurve:
    def test_positive_slope_rejected(self):
        with pytest.raises(ScenarioError, match="slope"):
            OverheadCurve(slopes=(1e7,), intercepts=(2e7,), boundaries=(0.5,))

    def test_nonpositive_intercept_rejected(self):
        with pytest.raises(ScenarioError, match="intercept"):
            OverheadCurve(slopes=(-1e7,), intercepts=(0.0,), boundaries=(0.5,))

    def test_boundaries_must_strictly_decrease(self):
        with pytest.raises(ScenarioError, match="boundaries"):
            OverheadCurve(slopes=(-1e7, -2e7), intercepts=(2e7, 3e7),
                          boundaries=(0.4, 0.5))

    def test_slope_magnitude_must_grow_toward_small_ratios(self):
        with pytest.raises(ScenarioError, match="magnitude"):
            OverheadCurve(slopes=(-2e7, -1e7), intercepts=(3e7, 3e7),
                          boundaries=(0.5, 0.25))

    def test_value_must_stay_positive_on_domain(self):
        with pytest.raises(ScenarioError, match="positive"):
            OverheadCurve(slopes=(-1e8,), intercepts=(1e7,), boundaries=(0.05,))

    def test_segment_midpoint_value(self):
        curve = default_overhead_curve()
        mid = curve.midpoint(1)
        assert mid == pytest.approx(0.575)
        assert curve.evaluate(mid) == pytest.approx(2.1e7)

    def test_segment_bounds(self):
        curve = default_overhead_curve()
        assert curve.segment_bounds(0) == (0.70, 1.0)
        assert curve.segment_bounds(2) == (0.25, 0.45)

    def test_domain_minimum_belongs_to_last_segment(self):
        curve = default_overhead_curve()
        assert curve.segment_of(curve.ratio_min) == curve.num_segments - 1

    def test_out_of_domain_ratio_raises(self):
        curve = default_overhead_curve()
        with pytest.raises(ScenarioError):
            curve.segment_of(0.2)
        with pytest.raises(ScenarioError):
            curve.segment_of(1.1)

    def test_upward_jump_at_boundaries(self):
        # Deeper segments start at or above where the previous one ends.
        curve = default_overhead_curve()
        for d in range(curve.num_segments - 1):
            b = curve.boundaries[d]
            assert curve.evaluate_on(b, d + 1) >= curve.evaluate_on(b, d)

    @given(st.floats(min_value=0.25, max_value=1.0,
                     allow_nan=False, allow_infinity=False))
    def test_segment_lookup_exhaustive_and_exclusive(self, rho):
        curve = default_overhead_curve()
        d = curve.segment_of(rho)
        lo, hi = curve.segment_bounds(d)
        if rho == curve.ratio_min:
            assert d == curve.num_segments - 1
        else:
            assert lo < rho <= hi

    @given(st.floats(min_value=0.25, max_value=1.0, exclude_min=True,
                     allow_nan=False),
           st.floats(min_value=0.25, max_value=1.0, exclude_min=True,
                     allow_nan=False))
    def test_decreasing_within_each_segment(self, a, b):
        curve = default_overhead_curve()
        if curve.segment_of(a) != curve.segment_of(b):
            return
        if a < b:
            assert curve.evaluate(a) >= curve.evaluate(b)


class TestGtPlacement:
    def test_mean_radius_matches_area_uniform_sampling(self):
        # Area-uniform sampling over a disk of radius R has mean radius 2R/3.
        pts = generate_gt_positions(10000, 300.0, seed=42)
        mean_r = float(np.mean([math.hypot(x, y) for x, y in pts]))
        assert mean_r == pytest.approx(200.0, rel=0.02)

    def test_all_points_inside_disk(self):
        pts = generate_gt_positions(500, 120.0, seed=5)
        assert all(math.hypot(x, y) <= 120.0 for x, y in pts)

    def test_deterministic_for_seed(self):
        assert generate_gt_positions(8, 50.0, 3) == generate_gt_positions(8, 50.0, 3)
        assert generate_gt_positions(8, 50.0, 3) != generate_gt_positions(8, 50.0, 4)

    def test_invalid_arguments(self):
        with pytest.raises(ScenarioError):
            generate_gt_positions(0, 100.0, 1)
        with pytest.raises(ScenarioError):
            generate_gt_positions(4, -1.0, 1)


class TestDefaultDocument:
    def test_unequal_data_staggers_sizes(self):
        doc = default_document(unequal_data=True)
        sizes = doc["data_bytes"]
        assert len(set(sizes)) == len(sizes)
        assert sizes == sorted(sizes)

    def test_loads_cleanly(self):
        cfg = loads_scenario(default_document())
        assert cfg.num_gts == 4
        assert cfg.latency_budget == 0.7
