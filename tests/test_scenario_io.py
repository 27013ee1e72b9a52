import math

import pytest

from noplan.bitmap import TWO_PI
from noplan.errors import InvalidDelta, ParseError, ValidationError
from noplan.kinematics import RigidSE2, SerialChain
from noplan.scenario_io import (
    Scenario,
    chain_grid,
    load_scenario,
    min_obstacle_edge,
    parse_angle,
    scenario_from_dict,
    se2_grid,
    suggest_resolution,
)

from support import SCENARIO_DIR, square


def chain_doc(**overrides):
    doc = {
        "robot": {
            "kind": "serial_chain",
            "base": [0, 0],
            "links": [{"length": 1.0, "width": 0.05}, 0.5],
        },
        "obstacles": [
            {"id": "brick", "vertices": [[1, 1], [1.3, 1], [1.3, 1.2], [1, 1.2]]}
        ],
        "start": [0, 0],
        "goal": ["90 deg", 0],
        "grid": {"dims": [12, 12]},
    }
    doc.update(overrides)
    return doc


class TestParseAngle:
    def test_plain_numbers_are_radians(self):
        assert parse_angle(1.25) == 1.25
        assert parse_angle("2.5") == 2.5

    def test_degree_suffixes(self):
        assert parse_angle("90 deg") == pytest.approx(math.pi / 2)
        assert parse_angle("180degrees") == pytest.approx(math.pi)
        assert parse_angle("-45 DEG") == pytest.approx(-math.pi / 4)

    def test_radian_suffixes(self):
        assert parse_angle("1.5 rad") == 1.5
        assert parse_angle("2 radians") == 2.0

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_angle("fast")
        with pytest.raises(ParseError):
            parse_angle([1, 2])


class TestGridBuilders:
    def test_chain_grid_wraps_free_joints(self):
        chain = SerialChain((0, 0), [1.0, 1.0], joint_limits=[None, (-1.0, 2.0)])
        g = chain_grid(chain, [10, 8])
        assert g.wrap == (True, False)
        assert g.lo == (0.0, -1.0)
        assert g.hi == (TWO_PI, 2.0)

    def test_chain_grid_arity_checked(self):
        chain = SerialChain((0, 0), [1.0, 1.0])
        with pytest.raises(ValidationError):
            chain_grid(chain, [10])

    def test_se2_grid_layout(self):
        g = se2_grid(((0.0, 6.7), (0.0, 3.9)), [67, 39, 72])
        assert g.dims == (67, 39, 72)
        assert g.wrap == (False, False, True)
        assert g.lo == (0.0, 0.0, 0.0)
        assert g.hi == (6.7, 3.9, TWO_PI)


class TestResolutionRule:
    def test_unlimited_two_link_example(self):
        chain = SerialChain((0, 0), [1.0, 1.0])
        assert suggest_resolution(chain, TWO_PI / 18) == [36, 36]

    def test_limited_joint_gets_fewer_cells(self):
        chain = SerialChain(
            (0, 0), [1.0, 1.0], joint_limits=[None, (0.0, math.pi / 2)]
        )
        assert suggest_resolution(chain, TWO_PI / 18) == [36, 9]

    def test_finer_delta_never_coarsens(self):
        chain = SerialChain((0, 0), [0.7, 0.4, 0.2])
        prev = None
        for delta in (0.5, 0.2, 0.1, 0.05, 0.02):
            dims = suggest_resolution(chain, delta)
            if prev is not None:
                assert all(a >= b for a, b in zip(dims, prev))
            prev = dims

    def test_at_least_two_cells(self):
        chain = SerialChain((0, 0), [0.1])
        assert suggest_resolution(chain, 100.0) == [2]

    def test_bad_delta_rejected(self):
        chain = SerialChain((0, 0), [1.0])
        for bad in (0.0, -1.0, math.inf, math.nan, 1e-320):
            with pytest.raises(InvalidDelta):
                suggest_resolution(chain, bad)

    def test_overflowing_reach_rejected(self):
        # Each length is finite, their sum is not.
        chain = SerialChain((0, 0), [1e308, 1e308])
        with pytest.raises(InvalidDelta):
            suggest_resolution(chain, 0.1)

    def test_min_obstacle_edge(self):
        polys = [square(0, 0, 0.5), square(3, 3, 0.2)]
        assert min_obstacle_edge(polys) == pytest.approx(0.4)

    def test_min_obstacle_edge_needs_obstacles(self):
        with pytest.raises(InvalidDelta):
            min_obstacle_edge([])


class TestScenarioFromDict:
    def test_full_parse(self):
        sc = scenario_from_dict(chain_doc(), name="fallback")
        assert sc.robot.dof == 2
        assert sc.robot.links[1].width == pytest.approx(0.025)
        assert sc.goal[0] == pytest.approx(math.pi / 2)
        assert sc.grid.dims == (12, 12)
        assert sc.obstacle_ids == ("brick",)
        assert sc.name == "fallback"

    def test_delta_grid(self):
        doc = chain_doc(grid={"delta": TWO_PI / 18 * 1.5})
        sc = scenario_from_dict(doc)
        assert sc.grid.dims == tuple(suggest_resolution(sc.robot, TWO_PI / 18 * 1.5))

    def test_default_delta_is_min_obstacle_edge(self):
        doc = chain_doc(grid=None)
        sc = scenario_from_dict(doc)
        assert sc.grid.dims == tuple(suggest_resolution(sc.robot, 0.2))

    def test_rigid_body_parse(self):
        doc = {
            "robot": {
                "kind": "rigid_se2",
                "body": [[-0.2, -0.1], [0.2, -0.1], [0.2, 0.1], [-0.2, 0.1]],
                "reference_point": [0, 0],
            },
            "obstacles": [],
            "start": [0.5, 0.5, 0],
            "goal": [1.5, 1.5, "90 deg"],
            "grid": {"workspace": [[0, 2], [0, 2]], "dims": [10, 10, 8]},
        }
        sc = scenario_from_dict(doc)
        assert isinstance(sc.robot, RigidSE2)
        assert sc.grid.wrap == (False, False, True)

    def test_truncation_applied_from_file(self):
        doc = chain_doc(truncate_to_links=1)
        doc["start"] = [0, 0]
        doc["goal"] = [1.0, 0]
        sc = scenario_from_dict(doc)
        assert sc.robot.dof == 1
        assert sc.grid.dims == (12,)
        assert sc.start == (0.0,)

    @pytest.mark.parametrize("field, value", [
        ("truncate_to_links", 1.5), ("truncate_to_links", 1.0), ("grid", {"dims": [12, 12.5]}),
    ])
    def test_counts_are_integers(self, field, value):
        doc = chain_doc(**{field: value})
        with pytest.raises(ValidationError, match="must be an integer"):
            scenario_from_dict(doc)

    def test_missing_fields(self):
        for field in ("robot", "obstacles", "start", "goal"):
            doc = chain_doc()
            del doc[field]
            with pytest.raises(ParseError):
                scenario_from_dict(doc)

    def test_unknown_robot_kind(self):
        doc = chain_doc()
        doc["robot"]["kind"] = "hovercraft"
        with pytest.raises(ParseError):
            scenario_from_dict(doc)

    def test_bad_polygon_reported_as_validation(self):
        doc = chain_doc()
        doc["obstacles"] = [{"id": "flat", "vertices": [[0, 0], [1, 0], [2, 0]]}]
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_duplicate_obstacle_ids(self):
        doc = chain_doc()
        doc["obstacles"] = doc["obstacles"] * 2
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_endpoint_arity_checked(self):
        doc = chain_doc(start=[0, 0, 0])
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_endpoint_outside_limits(self):
        doc = chain_doc()
        doc["robot"]["joint_limits"] = [None, [-1, 1]]
        doc["goal"] = ["90 deg", 2.5]
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("limit", [[0], {"lo": 0}, [-1, 1, 2], 1.0])
    def test_limit_entry_is_null_or_a_pair(self, limit):
        doc = chain_doc()
        doc["robot"]["joint_limits"] = [None, limit]
        with pytest.raises(ParseError, match=r"robot\.joint_limits\[1\]"):
            scenario_from_dict(doc)


class TestScenarioObject:
    def test_grid_dof_mismatch(self):
        chain = SerialChain((0, 0), [1.0, 0.5])
        with pytest.raises(ValidationError):
            Scenario(
                robot=chain, obstacles=[], start=(0, 0), goal=(1, 1),
                grid=chain_grid(SerialChain((0, 0), [1.0]), [12]),
            )

    def test_truncate_slices_everything(self):
        sc = scenario_from_dict(chain_doc())
        cut = sc.truncate(1)
        assert cut.robot.dof == 1
        assert cut.grid.dims == (12,)
        assert cut.goal == (sc.goal[0],)

    def test_truncate_full_is_identity(self):
        sc = scenario_from_dict(chain_doc())
        assert sc.truncate(2) is sc

    def test_truncate_rigid_body_rejected(self):
        body = square(0, 0, 0.5)
        sc = Scenario(
            robot=RigidSE2(body, (0, 0)), obstacles=[],
            start=(0.5, 0.5, 0.0), goal=(1.5, 1.5, 0.0),
            grid=se2_grid(((0, 2), (0, 2)), [8, 8, 8]),
        )
        with pytest.raises(ValidationError):
            sc.truncate(1)

    def test_prepared_is_cached(self):
        sc = scenario_from_dict(chain_doc())
        assert sc.prepared() is sc.prepared()


class TestRoundTrip:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "absent.yaml")

    def test_load_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("robot: [unclosed\n")
        with pytest.raises(ParseError):
            load_scenario(path)

    def test_shipped_scenarios_parse(self):
        names = [
            "two_link_three_bands.yaml",
            "four_link_bands.yaml",
            "rigid_body_wall.yaml",
            "five_link_walled.yaml",
            "two_link_single_block.yaml",
            "six_link_bands.yaml",
            "seven_link_bands.yaml",
        ]
        for name in names:
            sc = load_scenario(SCENARIO_DIR / name)
            assert sc.grid.ndim == sc.robot.dof
