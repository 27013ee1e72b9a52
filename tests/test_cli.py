import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noplan import engine
from noplan.bitmap import CSpaceBitmap, GridSpec, config_to_cell
from noplan.cli import (
    EXIT_ERROR,
    EXIT_FEASIBLE,
    EXIT_INFEASIBLE,
    EXIT_TIMEOUT,
    RENDER_BITS_PER_CELL,
    _load,
    build_parser,
    main,
)
from noplan.oracle import brute_force_bitmap
from noplan.scenario_io import chain_grid, load_scenario, se2_grid
from noplan.segmentation import segment

from support import SCENARIO_DIR

THREE_BANDS = str(SCENARIO_DIR / "two_link_three_bands.yaml")
SINGLE_BLOCK = str(SCENARIO_DIR / "two_link_single_block.yaml")
FIVE_LINK = str(SCENARIO_DIR / "five_link_walled.yaml")
FOUR_LINK = SCENARIO_DIR / "four_link_bands.yaml"
RIGID_WALL = str(SCENARIO_DIR / "rigid_body_wall.yaml")
# An integer too large for a float.
HUGE_INT = "9" * 400


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestProve:
    def test_infeasible_exit_and_json(self, capsys):
        code, out = run(capsys, "prove", THREE_BANDS, "--ns", "40", "--seed", "0")
        assert code == EXIT_INFEASIBLE
        data = json.loads(out)
        assert data["kind"] == "Infeasible"
        assert data["component_count"] >= 2
        assert data["grid"]["dims"] == [36, 36]

    def test_feasible_exit(self, capsys):
        code, out = run(capsys, "prove", SINGLE_BLOCK, "--ns", "40", "--seed", "0")
        assert code == EXIT_FEASIBLE
        assert json.loads(out)["kind"] == "FeasibleAtResolution"

    def test_resolution_override(self, capsys):
        code, out = run(
            capsys, "prove", THREE_BANDS, "--resolution", "24,18", "--ns", "30",
            "--seed", "1",
        )
        assert json.loads(out)["grid"]["dims"] == [24, 18]

    @pytest.mark.parametrize("path, flags, dims", [
        pytest.param(RIGID_WALL, ["--resolution", "40,30,36"], (40, 30, 36), id="rigid"),
        pytest.param(str(FOUR_LINK), ["--resolution", "20,22,24,26"], (20, 22, 24, 26),
                     id="four-link"),
        pytest.param(FIVE_LINK, ["--resolution", "24"], (24,) * 5, id="five-link"),
        pytest.param(FIVE_LINK, ["--resolution", "20,22,24", "--truncate-links", "3"],
                     (20, 22, 24), id="five-link-truncated"),
        pytest.param(None, ["--resolution", "30,20"], (30, 20), id="joint-limits"),
    ])
    def test_resolution_keeps_bounds_and_wrap(self, tmp_path, path, flags, dims):
        if path is None:
            text = (SCENARIO_DIR / "two_link_three_bands.yaml").read_text()
            path = tmp_path / "limited.yaml"
            path.write_text(
                text.replace("obstacles:", "  joint_limits: [null, [-1.5, 1.5]]\nobstacles:")
            )
        args = build_parser().parse_args(["prove", str(path), *flags])
        scenario = _load(args)
        args.resolution = None
        file_grid = _load(args).grid
        grid = scenario.grid
        assert grid.dims == dims
        assert (grid.lo, grid.hi, grid.wrap) == (file_grid.lo, file_grid.hi, file_grid.wrap)
        # the grid each robot kind's builder gives for the new dims
        if scenario.robot.kind == "serial_chain":
            assert grid == chain_grid(scenario.robot, dims)
        else:
            assert grid == se2_grid(((grid.lo[0], grid.hi[0]), (grid.lo[1], grid.hi[1])), dims)
        if path == tmp_path / "limited.yaml":
            assert grid.wrap == (True, False) and grid.hi[1] == 1.5

    @pytest.mark.parametrize("path, resolution, given, axes", [
        pytest.param(THREE_BANDS, "24,18,12", 3, 2, id="two-link-3-sizes"),
        pytest.param(RIGID_WALL, "40,30", 2, 3, id="rigid-2-sizes"),
    ])
    def test_resolution_count_must_match_axes(self, capsys, path, resolution, given, axes):
        code, out = run(capsys, "prove", path, "--resolution", resolution)
        assert code == EXIT_ERROR
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert str(given) in payload["message"] and str(axes) in payload["message"]

    def test_seed_reproduces_digest(self, capsys):
        _, out_a = run(capsys, "prove", THREE_BANDS, "--ns", "25", "--seed", "5")
        _, out_b = run(capsys, "prove", THREE_BANDS, "--ns", "25", "--seed", "5")
        assert json.loads(out_a)["bitmap_sha256"] == json.loads(out_b)["bitmap_sha256"]

    def test_truncate_links(self, capsys):
        code, out = run(
            capsys, "prove", FIVE_LINK, "--truncate-links", "3", "--ns", "60",
            "--seed", "0",
        )
        assert code == EXIT_INFEASIBLE
        assert json.loads(out)["grid"]["dims"] == [36, 36, 36]

    def test_export_bitmap(self, capsys, tmp_path):
        target = tmp_path / "proof.bin"
        code, out = run(
            capsys, "prove", THREE_BANDS, "--ns", "40", "--seed", "0",
            "--export-bitmap", str(target),
        )
        assert code == EXIT_INFEASIBLE
        loaded = CSpaceBitmap.load(target)
        assert loaded.digest() == json.loads(out)["bitmap_sha256"]

    def test_unwritable_export_prints_only_the_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "proof.bin"
        code, out = run(
            capsys, "prove", THREE_BANDS, "--seed", "0", "--export-bitmap", str(target),
        )
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "OSError"

    def test_pgm_export_of_non_2d_grid_fails_before_proving(self, capsys, tmp_path):
        target = tmp_path / "proof.pgm"
        code, out = run(
            capsys, "prove", str(FOUR_LINK), "--seed", "0", "--export-bitmap", str(target),
        )
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "UnsupportedDimension"
        assert not target.exists()

    def test_missing_file_is_json_error(self, capsys):
        code, out = run(capsys, "prove", "no_such_scene.yaml")
        assert code == EXIT_ERROR
        assert "error" in json.loads(out)

    def test_bad_resolution_is_json_error(self, capsys):
        code, out = run(capsys, "prove", THREE_BANDS, "--resolution", "garbage")
        assert code == EXIT_ERROR
        payload = json.loads(out)
        assert payload["error"] == "ValidationError"
        assert "garbage" in payload["message"]

    @pytest.mark.parametrize("grid, flags", [
        pytest.param("grid: {delta: 1.0e-4}\n", [], id="tiny-delta"),
        pytest.param("grid: {dims: [36, 36, 36, 36]}\n", ["--resolution", "100000"],
                     id="huge-resolution"),
    ])
    def test_hostile_grid_fails_fast(self, tmp_path, grid, flags):
        # More cells than any host's memory holds one bit of: the run must
        # stop before it allocates, with a JSON error and no traceback.
        text = FOUR_LINK.read_text()
        path = tmp_path / "hostile.yaml"
        path.write_text(text[: text.index("grid:")] + grid)
        proc = subprocess.run(
            [sys.executable, "-m", "noplan.cli", "prove", str(path), *flags],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_ERROR
        assert json.loads(proc.stdout)["error"] == "TooLarge"
        assert proc.stderr == ""

    @pytest.mark.parametrize("path, old, new", [
        pytest.param(THREE_BANDS, "dims: [36, 36]", "dims: [36, abc]", id="dims-text"),
        pytest.param(THREE_BANDS, "dims: [36, 36]", "dims: [36, .nan]", id="dims-nan"),
        pytest.param(THREE_BANDS, "dims: [36, 36]", "dims: 7", id="dims-scalar"),
        pytest.param(THREE_BANDS, "dims: [36, 36]", "dims: [36.7, 36]", id="dims-float"),
        pytest.param(THREE_BANDS, "start: [200 deg, 0.0]", "start: 5", id="start-scalar"),
        pytest.param(THREE_BANDS, "start: [200 deg, 0.0]", "start: [nan, 0.0]", id="start-nan"),
        pytest.param(THREE_BANDS, "goal: [15 deg, 0.0]", "goal: [0.1, .inf]", id="goal-inf"),
        pytest.param(THREE_BANDS, "{length: 1.0, width: 0.02}", "{length: abc, width: 0.02}",
                     id="length-text"),
        pytest.param(THREE_BANDS, "{length: 1.0, width: 0.02}", "{length: 1.0, width: [1]}",
                     id="width-list"),
        pytest.param(THREE_BANDS, "{length: 1.0, width: 0.02}", "{length: .inf, width: 0.02}",
                     id="length-inf"),
        pytest.param(THREE_BANDS, "{length: 1.0, width: 0.02}", "{length: 1.0, width: .inf}",
                     id="width-inf"),
        pytest.param(THREE_BANDS, "base: [0.0, 0.0]", "base: [.inf, 0.0]", id="base-inf"),
        pytest.param(THREE_BANDS, "base: [0.0, 0.0]",
                     "base: [0.0, 0.0]\n  joint_limits: [null, [0.0, .inf]]", id="limit-inf"),
        pytest.param(THREE_BANDS, "base: [0.0, 0.0]",
                     "base: [0.0, 0.0]\n  joint_limits: [[0], null]", id="limit-short"),
        pytest.param(THREE_BANDS, "base: [0.0, 0.0]",
                     "base: [0.0, 0.0]\n  joint_limits: [{lo: 0}, null]", id="limit-mapping"),
        pytest.param(THREE_BANDS, "base: [0.0, 0.0]",
                     "base: [0.0, 0.0]\n  joint_limits: [[0, 7, 1], null]", id="limit-long"),
        pytest.param(THREE_BANDS, "dims: [36, 36]", "delta: 1.0e-320", id="delta-overflows"),
        pytest.param(THREE_BANDS, "start: [200 deg, 0.0]", f"start: [{HUGE_INT}, 0.0]",
                     id="start-huge-int"),
        pytest.param(THREE_BANDS, "{length: 1.0, width: 0.02}",
                     f"{{length: {HUGE_INT}, width: 0.02}}", id="length-huge-int"),
        pytest.param(THREE_BANDS, "dims: [36, 36]", f"delta: {HUGE_INT}", id="delta-huge-int"),
        pytest.param(THREE_BANDS, "grid:\n  dims: [36, 36]", "grid: [36, 36]", id="grid-list"),
        pytest.param(RIGID_WALL, "workspace: [[0.0, 6.7], [0.0, 3.9]]",
                     "workspace: [[0.0, .inf], [0.0, 3.9]]", id="workspace-inf"),
    ])
    def test_malformed_scenario_fails_with_json_error(self, tmp_path, path, old, new):
        # A field of the wrong type or a number that is not finite is bad
        # input: a JSON error and exit 1, never a traceback or a verdict.
        text = Path(path).read_text()
        assert old in text
        bad = tmp_path / "malformed.yaml"
        bad.write_text(text.replace(old, new, 1))
        proc = subprocess.run(
            [sys.executable, "-m", "noplan.cli", "prove", str(bad), "--seed", "0"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_ERROR
        error = json.loads(proc.stdout)["error"]
        assert error in ("ParseError", "ValidationError", "InvalidDelta")
        assert proc.stderr == ""

    def test_deeply_nested_yaml_fails_with_json_error(self, tmp_path):
        # Nesting deeper than the interpreter's recursion limit is bad
        # input too, not a RecursionError traceback.
        bad = tmp_path / "deep.yaml"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        proc = subprocess.run(
            [sys.executable, "-m", "noplan.cli", "prove", str(bad)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_ERROR
        assert json.loads(proc.stdout)["error"] == "ParseError"
        assert proc.stderr == ""

    def test_connectivity_flag_accepted(self, capsys):
        code, _ = run(
            capsys, "prove", THREE_BANDS, "--connectivity", "moore", "--ns", "40",
            "--seed", "0",
        )
        assert code == EXIT_INFEASIBLE


class TestBench:
    def test_csv_shape_and_exit(self, capsys):
        code, out = run(
            capsys, "bench", THREE_BANDS, "--trials", "3", "--ns", "30",
            "--seed", "10",
        )
        assert code == EXIT_INFEASIBLE
        lines = out.strip().splitlines()
        assert lines[0] == "trial,seed,verdict,iterations,segmentation_time,total_time"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        assert [r[0] for r in rows[:3]] == ["0", "1", "2"]
        assert all(r[2] == "Infeasible" for r in rows[:3])
        assert [int(r[1]) for r in rows[:3]] == [10, 11, 12]
        assert rows[3][0] == "summary"
        assert "±" in rows[3][3]

    def test_first_trial_does_not_time_the_scipy_import(self):
        # In a fresh interpreter, importing scipy.ndimage takes about 0.3 s,
        # and segmenting this scene's two separating axes about 0.006 s.
        proc = subprocess.run(
            [sys.executable, "-m", "noplan.cli", "bench", RIGID_WALL, "--trials", "1",
             "--seed", "0"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        row = proc.stdout.splitlines()[1].split(",")
        assert row[2] == "Infeasible"
        assert float(row[4]) < 0.15

    def test_feasible_scene_exit(self, capsys):
        code, _ = run(
            capsys, "bench", SINGLE_BLOCK, "--trials", "2", "--ns", "30",
            "--seed", "0",
        )
        assert code == EXIT_FEASIBLE

    @pytest.mark.parametrize("flag, value", [
        ("--threads", "0"), ("--ns", "0"), ("--d", "9"),
        ("--timeout", "nan"), ("--timeout", "-1"),
    ])
    def test_invalid_flag_prints_only_the_error(self, capsys, flag, value):
        code = main(["bench", THREE_BANDS, "--trials", "2", flag, value])
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR
        assert len(out.splitlines()) == 1
        assert json.loads(out)["error"] == "ValidationError"
        assert err == ""

    def test_timeout_rows(self, capsys):
        code, out = run(
            capsys, "bench", SINGLE_BLOCK, "--trials", "2", "--ns", "1", "--d", "0",
            "--seed", "0", "--timeout", "0.0",
        )
        assert code == EXIT_TIMEOUT
        assert "Timeout" in out


class TestRender:
    def test_scenario_render(self, capsys, tmp_path):
        prefix = str(tmp_path / "scene")
        code, out = run(capsys, "render", THREE_BANDS, "--out", prefix)
        assert code == 0
        data = json.loads(out)
        assert data["components"] == 3
        raw = (tmp_path / "scene.labels.pgm").read_bytes()
        assert raw.startswith(b"P5\n36 36\n255\n")
        assert (tmp_path / "scene.bitmap.pgm").exists()

    def test_render_marks_start_and_goal(self, capsys, tmp_path):
        # Free cells take one gray per component, obstacles are black, the
        # start cell is white (255) and the goal cell dark gray (32); axis 1
        # points up the image.
        prefix = str(tmp_path / "scene")
        assert run(capsys, "render", THREE_BANDS, "--out", prefix)[0] == 0
        sc = load_scenario(THREE_BANDS)
        labels = segment(brute_force_bitmap(sc)).to_dense()
        shades = np.linspace(80, 255, labels.max()).astype(np.uint8)
        expect = np.where(labels > 0, shades[labels - 1], 0).astype(np.uint8)
        start = config_to_cell(sc.grid, sc.start)
        goal = config_to_cell(sc.grid, sc.goal)
        assert labels[start] != labels[goal]
        expect[start] = 255
        expect[goal] = 32
        raw = (tmp_path / "scene.labels.pgm").read_bytes()
        header = b"P5\n36 36\n255\n"
        assert raw.startswith(header)
        pixels = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(36, 36)
        assert np.array_equal(pixels, expect.T[::-1])

    def test_dump_render(self, capsys, tmp_path):
        target = tmp_path / "proof.bin"
        run(
            capsys, "prove", THREE_BANDS, "--ns", "40", "--seed", "0",
            "--export-bitmap", str(target),
        )
        prefix = str(tmp_path / "dumped")
        code, out = run(capsys, "render", str(target), "--out", prefix)
        assert code == 0
        assert json.loads(out)["components"] >= 2

    def test_dump_too_large_for_memory(self, capsys, monkeypatch, tmp_path):
        # The memory a render needs is charged before it labels: with one
        # byte less than that faked, it writes no image.
        spec = GridSpec((9, 6), (True, False), (0.0, 0.0), (1.0, 1.0))
        dump, prefix = str(tmp_path / "d.bin"), str(tmp_path / "r")
        CSpaceBitmap(spec).dump(dump)
        need = spec.size * RENDER_BITS_PER_CELL // 8

        def fake_memory(nbytes):
            sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
            monkeypatch.setattr(engine.os, "sysconf", sizes.__getitem__)

        fake_memory(need - 1)
        code, out = run(capsys, "render", dump, "--out", prefix)
        assert code == EXIT_ERROR
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "TooLarge"
        assert not list(tmp_path.glob("*.pgm"))
        fake_memory(need)
        code, out = run(capsys, "render", dump, "--out", prefix)
        assert code == 0
        assert json.loads(out)["components"] == 1

    def test_rejects_higher_dimensions(self, capsys):
        code, out = run(capsys, "render", FIVE_LINK)
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "UnsupportedDimension"

    @pytest.mark.parametrize("forge", [
        pytest.param(lambda raw: b"", id="empty"),
        pytest.param(lambda raw: raw[:20], id="20-bytes"),
        pytest.param(lambda raw: (1 << 40).to_bytes(8, "little") + raw[8:], id="ndim-2^40"),
        pytest.param(lambda raw: raw[:-1], id="truncated-payload"),
        pytest.param(
            lambda raw: raw[:8] + np.array([10**9, 10**9], "<u8").tobytes() + raw[24:],
            id="dims-1e9x1e9",
        ),
    ])
    def test_hostile_dump_fails_with_json_error(self, capsys, tmp_path, forge):
        good = tmp_path / "good.bin"
        CSpaceBitmap(GridSpec((9, 6), (True, False), (0.0, 0.0), (1.0, 1.0))).dump(good)
        path = tmp_path / "hostile.bin"
        path.write_bytes(forge(good.read_bytes()))
        code, out = run(capsys, "render", str(path), "--out", str(tmp_path / "r"))
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "IncompatibleGrids"


class TestEntryPoint:
    def test_installed_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "noplan.cli", "prove", THREE_BANDS,
             "--ns", "40", "--seed", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_INFEASIBLE
        assert json.loads(proc.stdout)["kind"] == "Infeasible"

    @pytest.mark.parametrize("argv", [
        pytest.param(["prove", THREE_BANDS, "--ns", "abc"], id="bad-int"),
        pytest.param(["prove", THREE_BANDS, "--no-such-flag"], id="unknown-flag"),
        pytest.param(["prove"], id="missing-scenario"),
        pytest.param(["bench", THREE_BANDS, "--trials", "0"], id="zero-trials"),
        pytest.param(["bench", THREE_BANDS, "--export-bitmap", "x.bin"], id="bench-export"),
        pytest.param(["prove", THREE_BANDS, "--seed", "-1"], id="prove-negative-seed"),
        pytest.param(["bench", THREE_BANDS, "--seed", "-1"], id="bench-negative-seed"),
    ])
    def test_usage_error_is_json_error(self, capsys, argv):
        # argparse exits 2 on a usage error, the code of a feasible verdict
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "ValidationError"
        assert err == ""

    def test_subcommand_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prove", "--help"])
        assert exc.value.code == 0
        assert "--export-bitmap" in capsys.readouterr().out

    def test_help_lists_subcommands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "noplan.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for name in ("prove", "bench", "render"):
            assert name in proc.stdout
