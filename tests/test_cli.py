import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from numpy.lib import format as npy_format

from trifuse import backbone, cli, harness
from trifuse.cli import EXIT_OK, EXIT_PARTIAL_GRID, EXIT_VALIDATION, build_parser, main
from trifuse.data import read_npy


FAST_FLAGS = ["--variant", "B0"]


def _refused_at_once(capsys, argv):
    """The stderr of ``argv``, which must exit 1 within 1 s, with a traced
    peak under 4 MB: what it was asked for is sized before it is built."""
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = main(argv)
        secs, peak = time.perf_counter() - t0, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_VALIDATION and secs < 1.0 and peak < 4 << 20
    return capsys.readouterr().err


def _fast_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "B0", "input_size": [64, 64], "timing_reps": 1}))
    return str(cfg)


class TestInspect:
    def test_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--config", _fast_config(tmp_path), "--out", str(out), "inspect"])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["stage_shapes"][0] == [1, 32, 16, 16]
        assert rep["pyramid_shapes"][-1] == [1, 256, 1, 1]
        assert rep["param_count"] > 0

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "--config", _fast_config(tmp_path), "--out", str(out),
            "inspect", "--mechanism", "cssa", "--stages", "3", "4", "--tau", "0.7",
        ])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["config"]["mechanism"] == "cssa"
        assert rep["config"]["stages"] == [3, 4]
        assert rep["config"]["tau"] == 0.7

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tau": 3.0}))
        code = main(["--config", str(bad), "inspect"])
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err


class TestGrid:
    def test_sweep_outputs_and_exit_codes(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"mechanism": ["none", "cssa"]}))
        out = tmp_path / "grid"
        code = main(["--config", _fast_config(tmp_path), "--out", str(out),
                     "grid", "--sweep", str(sweep)])
        assert code == EXIT_OK
        reports = json.loads((out / "grid.json").read_text())
        assert len(reports) == 2
        assert (out / "grid.csv").exists()

    def test_partial_failure_exit_three(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"variant": ["B0", "B9"]}))
        out = tmp_path / "grid"
        code = main(["--config", _fast_config(tmp_path), "--out", str(out),
                     "grid", "--sweep", str(sweep)])
        assert code == EXIT_PARTIAL_GRID
        reports = json.loads((out / "grid.json").read_text())
        errors = [r["error"] for r in reports]
        assert any(errors) and not all(errors)

    @pytest.mark.parametrize("flag", [[], ["--ablation-grid"]], ids=["sweep", "ablation"])
    def test_out_that_is_a_file_fails_before_any_cell(self, tmp_path, capsys, monkeypatch, flag):
        calls = []
        monkeypatch.setattr(harness, "_run_cells", lambda configs: calls.append(configs))
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["--config", _fast_config(tmp_path), "--out", str(out), "grid", *flag])
        assert code == EXIT_VALIDATION and calls == []
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"

    def test_out_of_memory_fails_only_its_cell(self, tmp_path, capsys, monkeypatch):
        # numpy raises a MemoryError subclass for an allocation the host
        # cannot make; here RTE's stream B, the only two-channel input, does
        real = backbone.patch_embed
        error = "Unable to allocate 80.0 GiB for an array with shape (1, 64, 80000, 2000)"

        def embed(x, stage, params, p):
            if x.shape[1] == 2:
                raise MemoryError(error)
            return real(x, stage, params, p)

        monkeypatch.setattr(backbone, "patch_embed", embed)
        sweep = tmp_path / "sweep.json"
        sweep.write_text('{"modalities": ["RT", "RTE"]}')
        out = tmp_path / "grid"
        code = main(["--config", _fast_config(tmp_path), "--out", str(out), "grid", "--sweep", str(sweep)])
        assert code == EXIT_PARTIAL_GRID
        reports = json.loads((out / "grid.json").read_text())
        assert {r["config"]["modalities"]: r["error"] for r in reports} == {"RT": None, "RTE": f"MemoryError: {error}"}
        capsys.readouterr()
        code = main(["--config", _fast_config(tmp_path), "inspect", "--modalities", "RTE"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {error}\n"


class TestVerify:
    def test_all_green(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["--out", str(out), "verify", "--seeds", "2"])
        assert code == EXIT_OK
        summary = json.loads(out.read_text())
        assert all(res["failed"] == [] for res in summary.values())
        assert "ok" in capsys.readouterr().out


class TestSynthAndEval:
    def test_synth_then_inspect(self, tmp_path):
        data = tmp_path / "data"
        code = main(["--seed", "3", "--out", str(data), "synth",
                     "--n", "2", "--height", "64", "--width", "64"])
        assert code == EXIT_OK
        manifest = data / "manifest.json"
        assert manifest.exists()
        out = tmp_path / "report.json"
        code = main(["--config", _fast_config(tmp_path), "--out", str(out),
                     "inspect", "--source", str(manifest)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["stage_shapes"][0] == [1, 32, 16, 16]

    @pytest.mark.parametrize("flags, error", [
        (["--n", "-2"], "frame count must be >= 0, got -2"),
        (["--height", "10", "--width", "10"], "frame size 10x10: height and width must be >= 13"),
        (["--width", "12"], "frame size 301x12: height and width must be >= 13"),
    ], ids=["n-2", "10x10", "width-12"])
    def test_synth_bad_size_exits_one(self, tmp_path, capsys, flags, error):
        code = main(["--out", str(tmp_path / "data"), "synth", *flags])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
        assert not (tmp_path / "data").exists()

    def test_synth_smallest_frame(self, tmp_path):
        assert main(["--out", str(tmp_path / "data"), "synth", "--n", "1", "--height", "13", "--width", "13"]) == EXIT_OK

    def test_eval_perfect_detector(self, tmp_path):
        boxes = [[0, 0, 10, 10], [20, 0, 30, 10]]
        dpath, gpath = tmp_path / "d.jsonl", tmp_path / "g.jsonl"
        dpath.write_text("".join(json.dumps({"image_id": "a", "bbox": b, "score": 0.9}) + "\n" for b in boxes))
        gpath.write_text("".join(json.dumps({"image_id": "a", "bbox": b}) + "\n" for b in boxes))
        out = tmp_path / "eval.json"
        code = main(["--out", str(out), "eval", "--dets", str(dpath), "--gts", str(gpath)])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["mAP"] == pytest.approx(1.0)
        assert rep["counts_at_50"] == {"tp": 2, "fp": 0, "fn": 0}

    def test_eval_malformed_input_exits_one(self, tmp_path, capsys):
        dpath = tmp_path / "d.jsonl"
        dpath.write_text("nope\n")
        gpath = tmp_path / "g.jsonl"
        gpath.write_text("")
        code = main(["eval", "--dets", str(dpath), "--gts", str(gpath)])
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err


class TestInputErrors:
    """A malformed or missing input file exits 1 with ``error: path[:line]``."""

    def _fails(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "Traceback" not in err
        return err

    def test_non_list_stages_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"stages": 4}')
        assert "error: stages: " in self._fails(capsys, ["--config", str(cfg), "inspect"])

    @pytest.mark.parametrize("data, argv, kind", [
        ("[1, 2]", ["inspect", "--variant", "B0"], "list"),
        ('"abc"', ["--seed", "3", "grid"], "str"),
    ], ids=["list-inspect-variant", "str-seed-grid"])
    def test_config_not_an_object_with_a_flag_exits_one(self, tmp_path, capsys, data, argv, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(data)
        out = tmp_path / "out"
        err = self._fails(capsys, ["--config", str(cfg), "--out", str(out), *argv])
        assert err == f"error: config must be a JSON object, got {kind}\n"
        assert not out.exists()

    def test_non_list_stages_in_sweep(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text('{"stages": [4, 3]}')
        err = self._fails(capsys, ["--config", _fast_config(tmp_path), "--out", str(tmp_path / "g"),
                                   "grid", "--sweep", str(sweep)])
        assert "error: stages: " in err

    @pytest.mark.parametrize("field, value", [("stages", [3.9]), ("stages", "34"), ("stages", [True]),
                                              ("input_size", [64.5, 64]), ("input_size", ["64", 64])])
    def test_inexact_integers_in_config(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": "B0", "input_size": [64, 64], "timing_reps": 1, field: value}))
        err = self._fails(capsys, ["--config", str(cfg), "--out", str(tmp_path / "r.json"), "inspect"])
        assert f"error: {field}: expected a list of integers" in err

    def test_empty_manifest(self, tmp_path, capsys):
        # an empty manifest, a missing one and a directory: inspect exits 1,
        # and in a grid each fails only its cells
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]")
        missing = tmp_path / "missing.json"
        sweep = tmp_path / "sweep.json"
        sweep.write_text('{"mechanism": ["cssa", "gaff"]}')
        for source, error in [
            (manifest, f"ValidationError: {manifest}: manifest has no entries"),
            (missing, f"FileNotFoundError: [Errno 2] No such file or directory: '{missing}'"),
            (tmp_path, f"IsADirectoryError: [Errno 21] Is a directory: '{tmp_path}'"),
        ]:
            err = self._fails(capsys, ["--config", _fast_config(tmp_path), "inspect", "--source", str(source)])
            assert err == f"error: {error.split(': ', 1)[1]}\n"
            out = tmp_path / f"grid-{source.name}"
            code = main(["--config", _fast_config(tmp_path), "--out", str(out),
                         "grid", "--sweep", str(sweep), "--source", str(source)])
            assert code == EXIT_PARTIAL_GRID
            errors = [r["error"] for r in json.loads((out / "grid.json").read_text())]
            assert errors == [error] * 2

    @pytest.mark.parametrize("argv, error", [
        (["inspect"], "seed: must be >= 0, got -1"),
        (["grid"], "seed: must be >= 0, got -1"),
        (["synth", "--n", "1"], "seed must be >= 0, got -1"),
        (["verify", "--seeds", "1"], "seed must be >= 0, got -1"),
    ], ids=["inspect", "grid", "synth", "verify"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, argv, error):
        out = tmp_path / "out"
        err = self._fails(capsys, ["--config", _fast_config(tmp_path), "--seed", "-1", "--out", str(out), *argv])
        assert err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_verify_without_seeds_exits_one(self, tmp_path, capsys, seeds):
        out = tmp_path / "verify.json"
        err = self._fails(capsys, ["--out", str(out), "verify", "--seeds", seeds])
        assert err == f"error: seeds must be >= 1, got {seeds}\n"
        assert not out.exists()

    def test_empty_sweep_axis_exits_one(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text('{"mechanism": []}')
        out = tmp_path / "g"
        err = self._fails(capsys, ["--config", _fast_config(tmp_path), "--out", str(out),
                                   "grid", "--sweep", str(sweep)])
        assert err == "error: sweep axis 'mechanism' has no values\n"
        assert not out.exists()

    def test_sweep_of_10_to_the_12_cells_exits_one(self, tmp_path, capsys):
        # four axes of 1,000 values: refused from the axis lengths
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"tau": [i / 1000 for i in range(1000)], "se_ratio": list(range(1000)),
                                     "variant": [f"B{i}" for i in range(1000)], "merge": list(map(str, range(1000)))}))
        out = tmp_path / "g"
        err = _refused_at_once(capsys, ["--config", _fast_config(tmp_path), "--out", str(out),
                                        "grid", "--sweep", str(sweep)])
        assert err == "error: sweep of 1000000000000 cells, above the bound of 4096\n"
        assert not out.exists()

    def test_repeated_stage_exits_one(self, tmp_path, capsys):
        err = self._fails(capsys, ["--config", _fast_config(tmp_path), "inspect", "--stages", "1", "1"])
        assert err == "error: stages: a stage is listed more than once in [1, 1]\n"

    @pytest.mark.parametrize("verb", ["inspect", "synth", "bin-events", "bin-events-inferred"])
    def test_frame_of_200000_squared_exits_one(self, tmp_path, capsys, verb):
        # refused before the frame is allocated: 200000 x 200000 float32 x 5 is 745 GiB
        size = "200000x200000 = 40000000000 pixels"
        (tmp_path / "events.txt").write_text("5 4611686018427387904 0 1\n")
        (tmp_path / "stamps.txt").write_text("0.1\n")
        bin_events = ["bin-events", "--events", str(tmp_path / "events.txt"), "--timestamps", str(tmp_path / "stamps.txt")]
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"input_size": [200000, 200000]}')
        argv, error = {
            "inspect": (["--config", str(cfg), "inspect"], "input_size: 200000x200000 x batch 1 = 40000000000 pixels"),
            "synth": (["synth", "--height", "200000", "--width", "200000"], f"frame size {size}"),
            "bin-events": (bin_events + ["--sensor-size", "200000", "200000"], f"sensor_size {size}"),
            "bin-events-inferred": (bin_events, f"sensor_size 1x{2**62 + 1} = {2**62 + 1} pixels"),
        }[verb]
        out = tmp_path / "out"
        err = self._fails(capsys, ["--out", str(out), *argv])
        assert err == f"error: {error}, above the bound of 4194304\n"
        assert not out.exists()

    def test_oversized_manifest_frame_exits_one(self, tmp_path, capsys):
        # refused from the NPY header: inspect exits 1, and in a grid the
        # frame fails each cell
        with open(tmp_path / "f.npy", "wb") as f:  # a header that claims the frame, and no data
            npy_format.write_array_header_1_0(f, {"descr": "<f4", "fortran_order": False, "shape": (2049, 2049, 5)})
        (tmp_path / "f.txt").write_text("")
        manifest = tmp_path / "m.json"
        manifest.write_text('[{"image": "f.npy", "labels": "f.txt", "day_night": "day"}]')
        error = f"{tmp_path / 'f.npy'}: frame 2049x2049 = 4198401 pixels, above the bound of 4194304"
        err = self._fails(capsys, ["--config", _fast_config(tmp_path), "inspect", "--source", str(manifest)])
        assert err == f"error: {error}\n"
        sweep = tmp_path / "sweep.json"
        sweep.write_text('{"mechanism": ["cssa", "gaff"]}')
        out = tmp_path / "grid"
        code = main(["--config", _fast_config(tmp_path), "--out", str(out),
                     "grid", "--sweep", str(sweep), "--source", str(manifest)])
        assert code == EXIT_PARTIAL_GRID
        assert [r["error"] for r in json.loads((out / "grid.json").read_text())] == [f"ValidationError: {error}"] * 2

    def test_missing_detections_file(self, tmp_path, capsys):
        gts = tmp_path / "g.jsonl"
        gts.write_text("")
        missing = tmp_path / "missing.jsonl"
        err = self._fails(capsys, ["eval", "--dets", str(missing), "--gts", str(gts)])
        assert "error: " in err and str(missing) in err

    @pytest.mark.parametrize("flag", ["--config", "--sweep"])
    @pytest.mark.parametrize("data, where", [
        (b'{"tau":\n', ":2: malformed JSON"),
        (b"[" * 100000, ": JSON nested too deeply"),
        (b'{\n"\xff": 1}', ":2: not UTF-8"),
    ], ids=["truncated", "nested", "non-utf8"])
    def test_malformed_json_names_file_and_line(self, tmp_path, capsys, flag, data, where):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        if flag == "--config":
            argv = ["--config", str(bad), "inspect"]
        else:
            argv = ["--config", _fast_config(tmp_path), "grid", "--sweep", str(bad)]
        assert f"error: {bad}{where}" in self._fails(capsys, argv)


class TestBinEvents:
    def test_frames_written(self, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text("100000 2 1 1\n200000 3 2 -1\n900000 0 0 1\n")
        stamps = tmp_path / "stamps.txt"
        stamps.write_text("0.15\n0.9\n")
        out = tmp_path / "frames"
        code = main(["--out", str(out), "bin-events", "--events", str(events),
                     "--timestamps", str(stamps), "--dt", "0.2",
                     "--sensor-size", "4", "5"])
        assert code == EXIT_OK
        f0 = read_npy(out / "frame_0000.npy")
        assert f0.shape == (4, 5)
        assert f0[1, 2] == 1.0 and f0[2, 3] == -1.0
        f1 = read_npy(out / "frame_0001.npy")
        assert f1[0, 0] == 1.0

    def test_frame_names_sort_in_stamp_order(self, tmp_path, monkeypatch):
        # 10,001 stamps: the index takes the last index's five digits
        (tmp_path / "events.txt").write_text("100000 0 0 1\n")
        (tmp_path / "stamps.txt").write_text("".join(f"{i / 1000}\n" for i in range(10_001)))
        names = []
        monkeypatch.setattr(cli, "write_npy", lambda path, frame: names.append(Path(path).name))
        code = main(["--out", str(tmp_path / "frames"), "bin-events", "--events", str(tmp_path / "events.txt"),
                     "--timestamps", str(tmp_path / "stamps.txt"), "--sensor-size", "1", "1"])
        assert code == EXIT_OK
        assert names[:2] == ["frame_00000.npy", "frame_00001.npy"] and names[-1] == "frame_10000.npy"
        assert names == sorted(names) and len(set(names)) == 10_001

    def test_frames_above_the_output_bound_exit_one(self, tmp_path, capsys):
        # 1,166 frames of 1280x720 float32 are 4.3 GB, refused before
        # anything is binned or written
        (tmp_path / "events.txt").write_text("100000 0 0 1\n")
        (tmp_path / "stamps.txt").write_text("".join(f"{i / 30}\n" for i in range(1166)))
        out = tmp_path / "frames"
        err = _refused_at_once(capsys, ["--out", str(out), "bin-events", "--events", str(tmp_path / "events.txt"),
                                        "--timestamps", str(tmp_path / "stamps.txt"), "--sensor-size", "1280", "720"])
        assert err == "error: 1166 frames of 1280x720 float32 = 4298342400 bytes, above the bound of 4294967296\n"
        assert not out.exists()

    def test_bad_event_file_exits_one(self, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text("100 1\n")
        stamps = tmp_path / "stamps.txt"
        stamps.write_text("0.1\n")
        code = main(["bin-events", "--events", str(events), "--timestamps", str(stamps)])
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["events", "timestamps", "nan", "inf"])
    def test_non_numeric_field_names_file_and_line(self, tmp_path, capsys, bad):
        # nan and inf parse as floats, so they are refused as timestamps
        # before any frame is written
        files = {"events": "100000 2 1 1\n\nabc 1 2 1\n", "timestamps": f"0.1\n\n{bad}\n"}
        if bad != "events":
            files["events"] = "100000 2 1 1\n"
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        code = main(["--out", str(tmp_path / "frames"), "bin-events",
                     "--events", str(paths["events"]), "--timestamps", str(paths["timestamps"])])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        where = paths["events" if bad == "events" else "timestamps"]
        what = "non-finite timestamp" if bad in ("nan", "inf") else "non-numeric"
        assert err.startswith(f"error: {where}:3: {what}") and err.count("\n") == 1
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("size, events", [
        (["-1", "5"], ""), (["0", "5"], ""), (["4", "0"], "100000 2 1 1\n"),
    ], ids=["-1x5", "0x5", "4x0"])
    def test_sensor_size_not_positive_exits_one(self, tmp_path, capsys, size, events):
        (tmp_path / "events.txt").write_text(events)
        (tmp_path / "stamps.txt").write_text("0.1\n")
        code = main(["--out", str(tmp_path / "frames"), "bin-events", "--events", str(tmp_path / "events.txt"),
                     "--timestamps", str(tmp_path / "stamps.txt"), "--sensor-size", *size])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: sensor_size must be two positive integers (H, W), got ({size[0]}, {size[1]})\n"
        assert not (tmp_path / "frames").exists()

    def test_negative_coordinate_without_sensor_size_exits_one(self, tmp_path, capsys):
        # the inferred size is at least 1x1, so the coordinate is what is reported
        (tmp_path / "events.txt").write_text("100000 -3 1 1\n")
        (tmp_path / "stamps.txt").write_text("0.1\n")
        code = main(["--out", str(tmp_path / "frames"), "bin-events", "--events", str(tmp_path / "events.txt"),
                     "--timestamps", str(tmp_path / "stamps.txt")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: x coordinate outside [0, 1)\n"

    @pytest.mark.parametrize("stamp, dt, error", [
        ("1e303", "0.1", ":2: window 1e+303 +/- 0.05 s is not finite in microseconds"),
        ("0.2", "1e305", ":1: window 0.1 +/- 5e+304 s is not finite in microseconds"),
        ("0.2", "0", "--dt must be positive and finite, got 0.0"),
        ("0.2", "inf", "--dt must be positive and finite, got inf"),
    ], ids=["stamp-1e303", "dt-1e305", "dt-0", "dt-inf"])
    def test_bad_window_exits_one_before_any_frame(self, tmp_path, capsys, stamp, dt, error):
        (tmp_path / "events.txt").write_text("100000 2 1 1\n")
        stamps = tmp_path / "stamps.txt"
        stamps.write_text(f"0.1\n{stamp}\n")
        out = tmp_path / "frames"
        code = main(["--out", str(out), "bin-events", "--events", str(tmp_path / "events.txt"),
                     "--timestamps", str(stamps), "--dt", dt])
        assert code == EXIT_VALIDATION
        where = str(stamps) if error.startswith(":") else ""
        assert capsys.readouterr().err == f"error: {where}{error}\n"
        assert not out.exists()

    def test_timestamp_beyond_int64_exits_one(self, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text("100000 2 1 1\n9223372036854775808 3 2 -1\n")
        stamps = tmp_path / "stamps.txt"
        stamps.write_text("0.1\n")
        code = main(["--out", str(tmp_path / "frames"), "bin-events",
                     "--events", str(events), "--timestamps", str(stamps)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"error: {events}:2: " in err
        assert "Traceback" not in err


    def test_timestamps_decreasing_across_int64_exit_one(self, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text(f"{2**63 - 1} 0 0 1\n{-2**63} 0 0 1\n")
        stamps = tmp_path / "stamps.txt"
        stamps.write_text("0.1\n")
        code = main(["--out", str(tmp_path / "frames"), "bin-events", "--events", str(events),
                     "--timestamps", str(stamps), "--sensor-size", "4", "4"])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == "error: timestamps decrease at event index 1\n"
        assert not (tmp_path / "frames").exists()


REPO = Path(__file__).resolve().parents[1]


def _readme_command_lines(prefix="trifuse "):
    readme = (REPO / "README.md").read_text()
    return [ln.split("#")[0] for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for ln in block.splitlines() if ln.startswith(prefix)]


class TestParser:
    def test_readme_command_lines_parse(self):
        lines = _readme_command_lines()
        assert len(lines) == 7
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])  # exits 1 on a parse error

    @pytest.mark.parametrize("argv, error", [
        (["grid", "--ablation-grid", "--sweep", "s.json"],
         "trifuse grid: error: argument --sweep: not allowed with argument --ablation-grid"),
        (["grid", "--bogus"], "trifuse: error: unrecognized arguments: --bogus"),
    ], ids=["ablation-grid-and-sweep", "unknown-flag"])
    def test_parse_error_exits_one(self, tmp_path, capsys, argv, error):
        # 1 is the usage/validation code; argparse's own 2 is a failed verification's
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main(["--out", str(out), *argv])
        assert exited.value.code == EXIT_VALIDATION
        assert [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln] == [error]
        assert not out.exists()

    def test_readme_command_lines_run(self, tmp_path, monkeypatch):
        # each line as written, in a directory holding the files it names,
        # with a config that shrinks the model (only inspect and grid read it)
        monkeypatch.chdir(tmp_path)
        config = _fast_config(tmp_path)
        Path("sweep.json").write_text('{"mechanism": ["cssa", "gaff"], "stages": [[4], [3, 4]]}')
        Path("events.txt").write_text("".join(f"{t} {t % 346} {t % 260} {t % 2 * 2 - 1}\n"
                                              for t in range(0, 100_000, 997)))
        Path("stamps.txt").write_text("0.02\n0.05\n")
        Path("dets.jsonl").write_text('{"image_id": "a", "bbox": [1, 0, 11, 10], "score": 0.9}\n'
                                      '{"image_id": "a", "bbox": [50, 50, 60, 60], "score": 0.4}\n')
        Path("gt.jsonl").write_text('{"image_id": "a", "bbox": [0, 0, 10, 10]}\n'
                                    '{"image_id": "a", "bbox": [20, 0, 30, 10]}\n')
        for line in _readme_command_lines():
            assert main(["--config", config] + shlex.split(line)[1:]) == EXIT_OK, line
        assert json.loads(Path("report.json").read_text())["config"]["mechanism"] == "cssa"
        assert len(json.loads(Path("runs/grid.json").read_text())) == 52
        assert len(json.loads(Path("corpus/manifest.json").read_text())) == 8
        assert read_npy("frames/frame_0001.npy").shape == (260, 346)

    def test_readme_demo_lines_run(self, tmp_path):
        # each demo as the README runs it, from a scratch working directory
        lines = _readme_command_lines("python3 demos/")
        assert len(lines) == 6
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        for line in lines:
            script = REPO / shlex.split(line)[1]
            run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, f"{line}\n{run.stderr}"
            if script.name == "ablation_sweep.py":
                out = tmp_path / re.search(r"outputs in (\S+)", run.stdout).group(1)
                assert (out / "grid.json").is_file() and (out / "grid.csv").is_file()

    def test_shared_flags_after_the_verb(self):
        parse = build_parser().parse_args
        args = parse(["--seed", "3", "--out", "a", "grid", "--config", "c.json"])
        assert (args.seed, args.out, args.config) == (3, "a", "c.json")
        args = parse(["--seed", "3", "synth", "--seed", "4", "--out", "b"])
        assert (args.seed, args.out, args.config) == (4, "b", None)
