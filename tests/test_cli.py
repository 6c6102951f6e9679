"""Command line behavior: flags, exit codes, files, and printed summaries."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vcachesim
from vcachesim import scenarios
from vcachesim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main


def parse_summary(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def last_row(path):
    with open(path, newline="") as stream:
        rows = list(csv.DictReader(stream))
    return rows[-1]


def run_cli(args):
    return main([str(a) for a in args])


# -- usage errors ------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli([]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["run", "--scenario", "urban_single", "--frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert run_cli(["--help"]) == EXIT_OK
    assert "usage: vcachesim" in capsys.readouterr().out


def test_run_needs_a_scenario_or_config(capsys):
    assert run_cli(["run"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_scenario_and_config_are_exclusive(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("scenario = urban_single\n")
    code = run_cli(["run", "--scenario", "urban_single", "--config", cfg])
    assert code == EXIT_USAGE
    assert "not both" in capsys.readouterr().err


def test_unknown_scenario_is_rejected_by_argparse(capsys):
    assert run_cli(["run", "--scenario", "suburbia"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    code = run_cli(["run", "--config", tmp_path / "absent.cfg"])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_broken_config_file(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("scenario = urban_single\nwheels = 4\n")
    assert run_cli(["run", "--config", cfg]) == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("scenario = urban_single\nradio.bitrate_bps = 0\n", "bitrate_bps must be positive"),
        ("scenario = urban_single\n[road]\nid = a\nlength_m = -5\n", "road length must be positive"),
        (
            "scenario = urban_single\n[road]\nid = a\nlength_m = 800\ndirection = 1, 1\n",
            "direction must be a unit vector",
        ),
        ("scenario = urban_single\n[road]\n", "line 2: [road] is missing field 'id'"),
        ("scenario = urban_single\n[rsu]\n", "line 2: [rsu] is missing field 'id'"),
        (
            "scenario = urban_single\n[rsu]\nid = v005\ncenter = 400, 100\nradius_m = 350\n",
            "rsu v005: v followed by digits names a vehicle",
        ),
        ("scenario = urban_single\nduration_s = inf\n", "duration_s must be finite"),
        (
            "scenario = urban_single\narrival_window_s = 0.0000001\n",
            "arrival_window_s must be at least 1 us once quantized",
        ),
        (
            "scenario = urban_single\n"
            "[rsu]\nid = r0\ncenter = 180, 100\nradius_m = 250\nrole = relay\nnext_hop = r1\n"
            "[rsu]\nid = r1\ncenter = 620, 100\nradius_m = 250\n",
            "rsu r0: centre outside the zone of its next_hop r1",
        ),
    ],
)
def test_bad_config_values_are_config_errors(tmp_path, capsys, text, fragment):
    # a parameter block's own check, and an empty section, used to escape
    # as "runtime error: ValueError" with exit code 2; an infinite duration
    # as an OverflowError, a relay out of its next hop's reach as a
    # RuntimeError at its first forward, and a sub-microsecond arrival window
    # as a draw from an empty range
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert fragment in err


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_bytes(b"scenario = urban_single\n\xff\n")
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_highway_multi_refuses_no_caching(capsys):
    code = run_cli(["run", "--scenario", "highway_multi", "--no-caching"])
    assert code == EXIT_USAGE
    assert "caching-only" in capsys.readouterr().err


def test_bad_seed_list(capsys):
    code = run_cli(["sweep", "--scenario", "urban_single", "--seeds", "1,two"])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_negative_seed_is_a_usage_error_before_any_run(tmp_path, capsys):
    # seed 1 used to run and write its files before seed -1 failed validation
    args = ["sweep", "--scenario", "urban_single", "--count", 5, "--seeds", "1,-1"]
    assert run_cli(args + ["--out", tmp_path]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seeds must be >= 0" in captured.err
    assert not any(tmp_path.iterdir())


def test_repeated_seed_is_a_usage_error_before_any_run(tmp_path, capsys):
    # a repeated seed used to run twice into one directory and count twice
    # in the sweep's means
    args = ["sweep", "--scenario", "urban_single", "--count", 5, "--seeds", "1,1,2"]
    assert run_cli(args + ["--out", tmp_path]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seeds must be distinct: '1,1,2'" in captured.err
    assert not any(tmp_path.iterdir())


# -- run ----------------------------------------------------------------------


def test_run_writes_series_and_prints_what_it_wrote(tmp_path, capsys):
    code = run_cli(
        ["run", "--scenario", "urban_single", "--count", 20, "--seed", 3, "--out", tmp_path]
    )
    assert code == EXIT_OK
    out_dir = tmp_path / "urban_single_cached_s3"
    for name in ("cdt.csv", "requests_server.csv", "requests_rsu.csv", "chr.csv"):
        assert (out_dir / name).exists()
    assert not (out_dir / "trace.log").exists()

    summary = parse_summary(capsys.readouterr().out)
    assert summary["scenario"] == "urban_single"
    assert summary["seed"] == "3"
    assert summary["caching"] == "on"
    assert summary["satisfied"] == "20/20"
    # the printed figures are the last CSV rows, verbatim
    cdt = last_row(out_dir / "cdt.csv")
    assert summary["final_avg_cdt_s"] == cdt["avg_cdt_s"]
    assert summary["deliveries"] == cdt["deliveries"]
    assert summary["server_requests"] == last_row(out_dir / "requests_server.csv")["cumulative"]
    assert summary["rsu_requests"] == last_row(out_dir / "requests_rsu.csv")["cumulative"]
    with open(out_dir / "chr.csv", newline="") as stream:
        chr_rows = [r for r in csv.DictReader(stream) if r["scope"] == "all-rsus"]
    assert summary["chr"] == chr_rows[-1]["chr"]


def test_run_without_caching_skips_chr(tmp_path, capsys):
    code = run_cli(
        [
            "run", "--scenario", "urban_single", "--count", 20, "--seed", 3,
            "--no-caching", "--out", tmp_path,
        ]
    )
    assert code == EXIT_OK
    out_dir = tmp_path / "urban_single_nocache_s3"
    assert out_dir.is_dir()
    assert not (out_dir / "chr.csv").exists()
    summary = parse_summary(capsys.readouterr().out)
    assert summary["caching"] == "off"
    assert summary["chr"] == "Undefined"


def test_trace_flag_writes_log(tmp_path, capsys):
    code = run_cli(
        [
            "run", "--scenario", "urban_single", "--count", 20, "--seed", 3,
            "--trace", "--out", tmp_path,
        ]
    )
    assert code == EXIT_OK
    log = tmp_path / "urban_single_cached_s3" / "trace.log"
    assert log.exists()
    first = log.read_text().splitlines()[0]
    assert first.startswith("t=")
    capsys.readouterr()


def test_config_file_run(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("scenario = urban_single\ncount = 20\nseed = 9\n")
    code = run_cli(["run", "--config", cfg, "--out", tmp_path / "out"])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "urban_single_cached_s9" / "cdt.csv").exists()
    capsys.readouterr()


def test_count_on_a_builder_file_runs_like_the_builder(tmp_path, capsys):
    # --count used to set vehicle_count alone and keep the builder's arrival
    # window and duration: 421 of 600 vehicles spawned, 370 were satisfied
    cfg = tmp_path / "h.cfg"
    cfg.write_text("scenario = highway_single\n")
    code = run_cli(["run", "--config", cfg, "--count", 600, "--out", tmp_path / "file"])
    from_file = parse_summary(capsys.readouterr().out)
    assert code == EXIT_OK
    code = run_cli(
        ["run", "--scenario", "highway_single", "--count", 600, "--out", tmp_path / "built"]
    )
    built = parse_summary(capsys.readouterr().out)
    assert code == EXIT_OK
    assert from_file["satisfied"] == built["satisfied"] == "600/600"
    run_dir = "highway_single_cached_s1"
    for name in ("cdt.csv", "requests_server.csv", "requests_rsu.csv", "chr.csv"):
        assert (tmp_path / "file" / run_dir / name).read_bytes() == (
            tmp_path / "built" / run_dir / name
        ).read_bytes()


def test_reruns_are_byte_identical(tmp_path, capsys):
    base = [
        "run", "--scenario", "urban_single", "--count", 20, "--seed", 4, "--trace",
    ]
    assert run_cli(base + ["--out", tmp_path / "a"]) == EXIT_OK
    assert run_cli(base + ["--out", tmp_path / "b"]) == EXIT_OK
    capsys.readouterr()
    names = ["cdt.csv", "requests_server.csv", "requests_rsu.csv", "chr.csv", "trace.log"]
    for name in names:
        first = (tmp_path / "a" / "urban_single_cached_s4" / name).read_bytes()
        second = (tmp_path / "b" / "urban_single_cached_s4" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"


def test_sample_interval_override_changes_grid(tmp_path, capsys):
    args = ["run", "--scenario", "urban_single", "--count", 20, "--seed", 3]
    assert run_cli(args + ["--out", tmp_path / "a"]) == EXIT_OK
    assert run_cli(args + ["--sample-interval", 50, "--out", tmp_path / "b"]) == EXIT_OK
    capsys.readouterr()
    dense = (tmp_path / "a" / "urban_single_cached_s3" / "requests_server.csv").read_text()
    sparse = (tmp_path / "b" / "urban_single_cached_s3" / "requests_server.csv").read_text()
    assert len(dense.splitlines()) > len(sparse.splitlines())


# -- sweep ---------------------------------------------------------------------


def test_sweep_compares_variants(tmp_path, capsys):
    code = run_cli(
        [
            "sweep", "--scenario", "urban_single", "--count", 20,
            "--seeds", "1,2", "--out", tmp_path,
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == [
        "variant", "seed", "final_avg_cdt_s", "deliveries",
        "server_requests", "rsu_requests", "chr", "satisfied",
    ]
    data = [line.split() for line in lines[1:5]]
    assert [(row[0], row[1]) for row in data] == [
        ("cached", "1"), ("cached", "2"), ("nocache", "1"), ("nocache", "2"),
    ]
    assert any(line.startswith("mean_final_avg_cdt_s[cached]:") for line in lines)
    assert any(line.startswith("mean_final_avg_cdt_s[nocache]:") for line in lines)
    ratio_line = next(l for l in lines if l.startswith("cdt_ratio_cached_over_nocache:"))
    assert 0.0 < float(ratio_line.split(":")[1]) < 1.0
    # every run left its directory behind
    for variant in ("cached", "nocache"):
        for seed in (1, 2):
            assert (tmp_path / f"urban_single_{variant}_s{seed}" / "cdt.csv").exists()


def test_sweep_caching_flag_limits_variants(tmp_path, capsys):
    code = run_cli(
        [
            "sweep", "--scenario", "urban_single", "--count", 20,
            "--seeds", "1", "--no-caching", "--out", tmp_path,
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "nocache 1" in out
    assert "cached" not in out.replace("nocache", "")
    assert "cdt_ratio" not in out  # only one variant, no ratio


def test_sweep_highway_multi_skips_nocache(tmp_path, capsys):
    code = run_cli(
        [
            "sweep", "--scenario", "highway_multi", "--count", 60,
            "--seeds", "1", "--out", tmp_path,
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "caching-only" in out
    rows = [line for line in out.splitlines() if line.startswith(("cached", "nocache"))]
    assert len(rows) == 1 and rows[0].startswith("cached 1")


def test_sweep_config_with_relays_runs_caching_only(tmp_path, capsys):
    # the sweep used to decide by the scenario name, so a relay layout given
    # by a file also tried the no-cache variant and aborted with exit 1
    cfg = tmp_path / "m.cfg"
    cfg.write_text("scenario = highway_multi\ncount = 20\n")
    code = run_cli(["sweep", "--config", cfg, "--seeds", "1", "--out", tmp_path / "out"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "caching-only" in out
    rows = [line for line in out.splitlines() if line.startswith(("cached", "nocache"))]
    assert len(rows) == 1 and rows[0].startswith("cached 1")


def test_sweep_reads_its_config_file_once(tmp_path, capsys, monkeypatch):
    reads = []
    read = scenarios._read_config_file

    def counted_read(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(scenarios, "_read_config_file", counted_read)
    cfg = tmp_path / "u.cfg"
    cfg.write_text("scenario = urban_single\ncount = 5\nseed = 7\n")
    code = run_cli(["sweep", "--config", cfg, "--seeds", "1,2", "--out", tmp_path / "out"])
    assert code == EXIT_OK
    assert reads == [cfg]
    out = capsys.readouterr().out
    rows = [line.split()[:2] for line in out.splitlines() if line.startswith(("cached", "nocache"))]
    assert rows == [["cached", "1"], ["cached", "2"], ["nocache", "1"], ["nocache", "2"]]
    for variant in ("cached", "nocache"):
        for seed in (1, 2):
            assert (tmp_path / "out" / f"urban_single_{variant}_s{seed}" / "cdt.csv").exists()


@pytest.mark.parametrize("flags", [[], ["--caching"]])
def test_sweep_ignores_the_config_files_own_seed(tmp_path, capsys, flags):
    # every run takes its seed from --seeds, so a bad seed in the file is
    # never run and must not stop the sweep, with or without a variant flag
    cfg = tmp_path / "u.cfg"
    cfg.write_text("scenario = urban_single\ncount = 5\nseed = -1\n")
    code = run_cli(["sweep", "--config", cfg, "--seeds", "1,2", *flags, "--out", tmp_path / "out"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split()[:2] for line in captured.out.splitlines() if line.startswith(("cached", "nocache"))]
    variants = ["cached"] if flags else ["cached", "nocache"]
    assert rows == [[v, s] for v in variants for s in ("1", "2")]


def test_sweep_config_error_prints_nothing(tmp_path, capsys):
    # the caching-only note is printed only for a config that passes the gate
    cfg = tmp_path / "m.cfg"
    cfg.write_text("scenario = highway_multi\ncount = 20\nrelay_announce_interval_s = 0.0000001\n")
    code = run_cli(["sweep", "--config", cfg, "--seeds", "1", "--out", tmp_path / "out"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "relay_announce_interval_s must be at least 1 us" in captured.err


# -- module entry ----------------------------------------------------------------


def test_python_dash_m_entry_point():
    # the child finds the package where this process imported it from, also
    # when pytest's own pythonpath setting, not PYTHONPATH, put it there
    package_root = str(Path(vcachesim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "vcachesim", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "usage: vcachesim" in proc.stdout
