import hashlib

import numpy as np
import pytest

from evcorner import InvalidParameter, SensorGeometry, read_stream, read_tags, write_stream
from evcorner.cli import main
from evcorner.config import build_detector, load_config, luvharris_config_from
from evcorner.render import read_pgm
from evcorner.synth import random_stream, texture_stream, wedge_stream


def test_config_file_parsing(tmp_path):
    path = tmp_path / "det.conf"
    path.write_text(
        "# pipeline settings\n"
        "detector = luvharris\n"
        "k_tos = 4\n"
        "t_tos = 20\n"
        "block_size = 5\n"
        "sobel_aperture = 3\n"
        "kappa = 0.05\n"
        "threshold_tr = 1e9   # raw response\n"
        "mode = alternating\n"
    )
    opts = load_config(path)
    cfg = luvharris_config_from(opts)
    assert cfg.k_tos == 4 and cfg.t_tos == 20
    assert cfg.harris.block_size == 5 and cfg.harris.kappa == 0.05
    assert cfg.threshold_tr == 1e9


def test_config_rejects_unknown_and_malformed(tmp_path):
    bad1 = tmp_path / "a.conf"
    bad1.write_text("mystery = 3\n")
    with pytest.raises(InvalidParameter):
        load_config(bad1)
    bad2 = tmp_path / "b.conf"
    bad2.write_text("threshold_tr\n")
    with pytest.raises(InvalidParameter):
        load_config(bad2)


def test_build_detector_by_name():
    g = SensorGeometry(32, 32)
    for name in ("luvharris", "eharris", "fast", "arc"):
        det = build_detector(name, g, {"threshold_tr": 1.0})
        assert hasattr(det, "process")
    with pytest.raises(InvalidParameter):
        build_detector("nope", g)


def _write_events(tmp_path, stream, name="events.csv"):
    path = tmp_path / name
    write_stream(stream, path)
    return path


def test_cli_detect_and_render_trails(tmp_path):
    g = SensorGeometry(64, 64)
    stream, _ = wedge_stream(g, 32, 32, 90)
    src = _write_events(tmp_path, stream)
    out = tmp_path / "tags.csv"
    rc = main(["detect", "--in", str(src), "--detector", "arc", "--out", str(out)])
    assert rc == 0
    tags = read_tags(out)
    assert len(tags) == len(stream)
    frames_dir = tmp_path / "frames"
    rc = main(["render", "--mode", "trails", "--tags", str(out),
               "--out-dir", str(frames_dir)])
    assert rc == 0
    assert list(frames_dir.glob("*.pgm"))


def test_cli_render_tos(tmp_path):
    g = SensorGeometry(32, 32)
    stream = random_stream(g, 500, seed=3)
    src = _write_events(tmp_path, stream)
    out = tmp_path / "tos.pgm"
    rc = main(["render", "--mode", "tos", "--in", str(src), "--out", str(out)])
    assert rc == 0
    assert read_pgm(out).shape == (32, 32)


def test_cli_filter_and_convert(tmp_path):
    g = SensorGeometry(32, 32)
    stream = random_stream(g, 2000, duration_us=50_000, seed=5)
    src = _write_events(tmp_path, stream)
    filtered = tmp_path / "f.csv"
    rc = main(["filter", "--in", str(src), "--out", str(filtered),
               "--refractory-us", "5000"])
    assert rc == 0
    assert 0 < len(read_stream(filtered)) <= len(stream)
    evb = tmp_path / "s.evb"
    rc = main(["convert", "--in", str(src), "--to", "packed_binary", "--out", str(evb)])
    assert rc == 0
    assert len(read_stream(evb, "packed_binary")) == len(stream)


def test_cli_pr(tmp_path):
    from evcorner import write_ground_truth

    g = SensorGeometry(64, 64)
    stream = random_stream(g, 3000, seed=7)
    src = _write_events(tmp_path, stream)
    gt_path = tmp_path / "gt.txt"
    write_ground_truth(np.random.default_rng(1).random(len(stream)), gt_path)
    out = tmp_path / "pr.csv"
    rc = main(["pr", "--in", str(src), "--gt", str(gt_path),
               "--detector", "arc", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("parameter,precision,recall")


def test_cli_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("junk\n")
    rc = main(["detect", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text,extra", [
    ("# evcorner v1 csv 70000 8\n1,65536,0,1\n", []),  # x would wrap to 0 in uint16
    ("# evcorner v1 csv 0 0\n", []),
    ("# evcorner v1 csv 8 8\ninf,1,1,1\n", ["--ts-unit", "s"]),
    ("# evcorner v1 csv 8 8\n1,99999999999999999999,0,1\n", []),
], ids=["width-over-uint16", "zero-geometry", "inf-seconds", "x-over-int64"])
def test_cli_rejects_bad_input_with_typed_error(tmp_path, capsys, text, extra):
    src = tmp_path / "bad.csv"
    src.write_text(text)
    out = tmp_path / "o.csv"
    rc = main(["convert", "--in", str(src), "--out", str(out), *extra])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_dual_thread_worker_failure_is_reported(tmp_path, capsys):
    # 4x4 is smaller than the Sobel aperture, so LUT regeneration fails
    src = _write_events(tmp_path, random_stream(SensorGeometry(4, 4), 2000, seed=1))
    conf = tmp_path / "dual.conf"
    conf.write_text("mode = dual_thread\n")
    out = tmp_path / "tags.csv"
    rc = main(["detect", "--in", str(src), "--config", str(conf), "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_filter_then_detect_output_is_golden(tmp_path):
    # digests of the files the per-line reader, the per-event filter loops
    # and the per-row writers produced for this input; the bulk paths must
    # reproduce them byte for byte
    g = SensorGeometry(240, 180)
    write_stream(texture_stream(g, 12_000, duration_us=80_000, seed=11), tmp_path / "raw.csv")
    assert main(["filter", "--in", str(tmp_path / "raw.csv"), "--out", str(tmp_path / "clean.csv"),
                 "--refractory-us", "2000", "--sp-window-us", "30000"]) == 0
    assert main(["detect", "--in", str(tmp_path / "clean.csv"),
                 "--out", str(tmp_path / "tags.csv")]) == 0
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("raw.csv", "clean.csv", "tags.csv")}
    assert digest == {
        "raw.csv": "a0e0692d712ff347fb4c72f4869b8eb45764c09457694fbb50e9b7da1cc52fd1",
        "clean.csv": "ebb9207099d8159ce360213ac2c2ca210b6967e332a5c7cce1b883c8c2385e95",
        "tags.csv": "6b2d9202340add5dda2240bd3c0339f3e110cce93620ebb13db32306fde18fba",
    }
