"""End-to-end smoke tests for every CLI subcommand (in-process main())."""

import csv
import dataclasses
import json
import math
import socket
import threading
from pathlib import Path

import numpy as np
import pytest

from edgeyolo import cli, images, netdef
from edgeyolo.edgecloud import protocol
from edgeyolo.edgecloud.sim import Scenario
from edgeyolo.postprocess import SoftNmsConfig
from edgeyolo.training import ToyScenario

PRESET = Path(cli.__file__).parent / "presets"


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    """Tiny 32px single-head model: config, random weights, anchor file."""
    root = tmp_path_factory.mktemp("mini")
    cfg = root / "mini.net"
    cfg.write_text("net 32 32 3\n"
                   "conv 3x3/2 8\n"
                   "conv 3x3/2 8\n"
                   "conv 1x1/1 14 linear\n"   # 2 anchors x (5 + 2 classes)
                   "head 0\n")
    g = netdef.load_config(cfg)
    g.init_random(0)
    weights = root / "mini.weights"
    netdef.save_weights(g, weights)
    anchors = root / "mini.anchors.txt"
    anchors.write_text("6.0000,6.0000\n12.0000,10.0000\n")
    img = root / "gray.ppm"
    images.write_ppm(img, np.full((3, 28, 40), 0.5, dtype=np.float32))
    return {"cfg": str(cfg), "weights": str(weights),
            "anchors": str(anchors), "img": str(img), "root": root}


def _model_flags(mini):
    return ["--config", mini["cfg"], "--weights", mini["weights"],
            "--anchors", mini["anchors"]]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_matches_golden(capsys, tmp_path):
    csv_out = tmp_path / "report.csv"
    rc = cli.main(["analyze", "--config", str(PRESET / "edge-yolo-416.net"),
                   "--golden", str(PRESET / "table-golden.csv"),
                   "--csv", str(csv_out)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "golden table matches" in out
    rows = list(csv.DictReader(csv_out.open()))
    assert len(rows) > 30
    assert {"index", "kind", "bflops"} <= set(rows[0])


def test_analyze_missing_config(capsys):
    rc = cli.main(["analyze", "--config", "/nonexistent.net"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def test_detect_runs_and_writes_jsonl(mini, capsys, tmp_path):
    out = tmp_path / "dets.jsonl"
    draw = tmp_path / "drawn"
    rc = cli.main(["detect", *_model_flags(mini),
                   "--score-floor", "0.3", "--out", str(out),
                   "--draw-dir", str(draw), mini["img"]])
    assert rc == 0
    for line in out.read_text().splitlines():
        d = json.loads(line)
        assert d["image"] == mini["img"]
        assert d["score"] >= 0.3
    assert (draw / "gray.ppm").exists()


def test_detect_score_floor_filters_everything(mini, capsys):
    rc = cli.main(["detect", *_model_flags(mini),
                   "--score-floor", "0.999", mini["img"]])
    assert rc == 0
    assert capsys.readouterr().out == ""    # nothing scores that high


def test_detect_missing_weights(mini, capsys):
    rc = cli.main(["detect", "--config", mini["cfg"],
                   "--weights", "/nonexistent.weights",
                   "--anchors", mini["anchors"], mini["img"]])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_detect_derives_classes_and_anchors_per_scale(mini, capsys):
    rc = cli.main(["detect", *_model_flags(mini), "--score-floor", "0.0",
                   mini["img"]])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rc == 0
    assert rows                           # 14 head channels / 2 anchors: 2 classes
    assert {r["class"] for r in rows} <= {0, 1}


def test_detect_rejects_anchors_that_do_not_fit_the_heads(mini, capsys, tmp_path):
    four = tmp_path / "four.anchors.txt"
    four.write_text("6,6\n9,8\n12,10\n20,20\n")
    # 4 anchors do not divide among the preset's 3 heads
    rc = cli.main(["detect", "--config", str(PRESET / "edge-yolo-416.net"),
                   "--weights", mini["weights"], "--anchors", str(four),
                   mini["img"]])
    assert rc == 1
    assert "do not divide among 3 detection heads" in capsys.readouterr().err
    # 4 anchors on the mini net's one head leave 14 // 4 - 5 < 1 classes
    rc = cli.main(["detect", "--config", mini["cfg"], "--weights",
                   mini["weights"], "--anchors", str(four), mini["img"]])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_detect_unreadable_image(mini, capsys):
    rc = cli.main(["detect", *_model_flags(mini), "/nonexistent.ppm"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no readable input images" in err


def test_detect_skips_frames_with_malformed_headers(mini, capsys, tmp_path):
    bad = []
    for i, dims in enumerate((b"ab 4", b"-1 -1", b"0 4")):
        bad.append(tmp_path / f"bad{i}.ppm")
        bad[-1].write_bytes(b"P6\n" + dims + b"\n255\n" + bytes(48))
    rc = cli.main(["detect", *_model_flags(mini), "--score-floor", "0.3",
                   *map(str, bad), mini["img"]])
    err = capsys.readouterr().err
    assert rc == 0
    assert err.count("warning: skipping") == len(bad)


def test_detect_no_images(mini, capsys):
    rc = cli.main(["detect", *_model_flags(mini)])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag,value", [("--sigma", "0"), ("--t-nms", "2"),
                                        ("--score-floor", "-1"), ("--sigma", "nan"),
                                        ("--score-floor", "nan")])
def test_detect_rejects_bad_nms_settings(mini, capsys, flag, value):
    rc = cli.main(["detect", *_model_flags(mini), flag, value, mini["img"]])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_single_run_has_no_spread_fields(mini, capsys):
    rc = cli.main(["bench", "--config", mini["cfg"],
                   "--warmup", "1", "--runs", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"] == 1
    assert report["fps"] > 0
    assert "stdev_s" not in report and "p95_s" not in report


def test_bench_multi_run_reports_spread(mini, capsys):
    rc = cli.main(["bench", "--config", mini["cfg"], "--runs", "3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stdev_s"] >= 0.0
    assert report["p95_s"] >= report["median_s"]


def test_bench_rejects_zero_runs(mini, capsys):
    rc = cli.main(["bench", "--config", mini["cfg"], "--runs", "0"])
    assert rc == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def test_anchors_clusters_label_csv(capsys, tmp_path):
    labels = tmp_path / "labels.csv"
    rng = np.random.default_rng(5)
    rows = ["image,class,cx,cy,w,h"]
    for i in range(40):
        w, h = rng.uniform(10, 60, 2)
        rows.append(f"img{i}.ppm,0,100,100,{w:.2f},{h:.2f}")
    labels.write_text("\n".join(rows) + "\n")
    out = tmp_path / "anchors.txt"
    rc = cli.main(["anchors", "--labels", str(labels), "--k", "4",
                   "--input-size", "416", "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert printed == out.read_text()
    pairs = [tuple(map(float, ln.split(",")))
             for ln in printed.splitlines() if not ln.startswith("#")]
    assert len(pairs) == 4
    areas = [w * h for w, h in pairs]
    assert areas == sorted(areas)


def test_anchors_rejects_malformed_labels(capsys, tmp_path):
    labels = tmp_path / "bad.csv"
    labels.write_text("image,class,cx,cy,w,h\nonly,three,cols\n")
    rc = cli.main(["anchors", "--labels", str(labels), "--k", "2"])
    assert rc == 1
    assert "expected 6 columns" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

def test_train_toy_smoke_with_artifacts(capsys, tmp_path):
    out = tmp_path / "toy.weights"
    hist = tmp_path / "history.csv"
    rc = cli.main(["train-toy", "--steps", "4", "--train-images", "16",
                   "--eval-every", "2", "--out", str(out),
                   "--history", str(hist)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "held-out AP@0.5" in printed
    assert out.exists()
    assert out.with_suffix(".anchors.txt").exists()
    rows = list(csv.DictReader(hist.open()))
    assert len(rows) == 4
    # eval rows carry val_ap50, quiet rows leave it blank
    assert rows[1]["val_ap50"] != "" and rows[0]["val_ap50"] == ""
    # the emitted artifacts are a complete, loadable detect setup
    frame = tmp_path / "frame.ppm"
    images.write_ppm(frame, np.full((3, 64, 64), 0.5, dtype=np.float32))
    rc = cli.main(["detect", "--config", str(out.with_suffix(".net")),
                   "--weights", str(out),
                   "--anchors", str(out.with_suffix(".anchors.txt")),
                   "--score-floor", "0.5", str(frame)])
    assert rc == 0


def test_train_toy_divergence_fails_cleanly(capsys):
    rc = cli.main(["train-toy", "--steps", "30", "--train-images", "16",
                   "--eta", "50.0"])
    assert rc == 1
    assert "diverged" in capsys.readouterr().err.lower()


def test_train_toy_divergence_still_writes_history(capsys, tmp_path):
    hist = tmp_path / "history.csv"
    rc = cli.main(["train-toy", "--steps", "30", "--train-images", "16",
                   "--eta", "50.0", "--history", str(hist)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: diverged:")
    rows = list(csv.DictReader(hist.open()))
    # the steps logged before the run was aborted
    assert 1 <= len(rows) < 30
    assert [r["step"] for r in rows] == [str(i) for i in range(len(rows))]
    assert all(0.0 <= float(r["clamped_share"]) <= 1.0 for r in rows)


@pytest.mark.parametrize("argv,field", [
    (["--steps", "0"], "steps"),
    (["--steps", "2", "--eval-every", "-1"], "eval_every"),
    (["--steps", "2", "--train-images", "4"], "batch_size"),
    (["--steps", "2", "--eta", "nan"], "eta"),
    (["--steps", "2", "--eta", "inf"], "eta"),
])
def test_train_toy_refuses_bad_settings(capsys, argv, field):
    # a run that takes no step, or cannot fill a batch, is not a success
    rc = cli.main(["train-toy", "--train-images", "16", *argv])
    out, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith("error: ") and field in err
    assert "loss" not in out


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def test_sim_cloud_with_trace_and_delays(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    delays = tmp_path / "delays.csv"
    rc = cli.main(["sim", "--path", "cloud", "--frames", "50",
                   "--trace", str(trace), "--delays", str(delays)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "mean_delay_s=" in printed and "path=cloud" in printed
    head = trace.open().readline().strip()
    assert head == "time_s,node,event,frame_id,delay_s"
    rows = list(csv.DictReader(delays.open()))
    assert len(rows) == 50
    assert [r["frame_id"] for r in rows] == [str(i) for i in range(50)]


def test_sim_ecc_reports_model_version(capsys):
    rc = cli.main(["sim", "--path", "ecc", "--frames", "120",
                   "--edge-profile", "nano"])
    printed = capsys.readouterr().out
    assert rc == 0
    version = int(printed.split("final_model_version=")[1].split()[0])
    assert version >= 1


def test_sim_rejects_unknown_net_profile_key(capsys, tmp_path):
    prof = tmp_path / "net.json"
    for spec, why in [({"uplink_bps": 1e6, "bogus": 3}, "unknown net-profile keys"),
                      ({"rtt_s": "0.01"}, "rtt_s must be a number"),
                      ({"uplink_bps": True}, "uplink_bps must be a number"),
                      (3.0, "must be a JSON object"),
                      ({"rtt_s": math.nan}, "rtt_s and jitter_max_s must be finite"),
                      ({"jitter_max_s": math.inf}, "rtt_s and jitter_max_s must be finite")]:
        prof.write_text(json.dumps(spec))
        rc = cli.main(["sim", "--path", "cloud", "--frames", "5",
                       "--net-profile", str(prof)])
        assert rc == 1, spec
        err = capsys.readouterr().err
        assert err.startswith("error:") and why in err, spec


def test_sim_net_profile_override(capsys, tmp_path):
    prof = tmp_path / "slow.json"
    prof.write_text(json.dumps({"uplink_bps": 2e6}))
    rc = cli.main(["sim", "--path", "cloud", "--frames", "20",
                   "--net-profile", str(prof)])
    assert rc == 0
    slow = float(capsys.readouterr().out
                 .split("mean_delay_s=")[1].split()[0])
    cli.main(["sim", "--path", "cloud", "--frames", "20"])
    fast = float(capsys.readouterr().out
                 .split("mean_delay_s=")[1].split()[0])
    assert slow > fast                      # narrower uplink queues harder


# ---------------------------------------------------------------------------
# output paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["detect --out", "detect --draw-dir", "sim --trace",
                                  "sim --delays", "anchors --out", "train-toy --out",
                                  "train-toy --history"])
def test_unwritable_output_path_is_an_error_not_a_traceback(case, mini, capsys, tmp_path,
                                                           monkeypatch):
    missing = str(tmp_path / "missing" / "file")
    (tmp_path / "plain").write_text("")
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(f"i,0,9,9,{10 + i},{20 + i}\n" for i in range(4)))
    # train-toy checks its paths before the run, so a lost run costs nothing
    monkeypatch.setattr(cli, "train_toy", lambda sc: pytest.fail("a training step ran"))
    argv = {
        "detect --out": ["detect", *_model_flags(mini), "--out", missing, mini["img"]],
        # --draw-dir makes a missing directory; a regular file in the path stops it
        "detect --draw-dir": ["detect", *_model_flags(mini), "--draw-dir",
                              str(tmp_path / "plain" / "drawn"), mini["img"]],
        "sim --trace": ["sim", "--path", "ecc", "--frames", "5", "--trace", missing],
        "sim --delays": ["sim", "--path", "cloud", "--frames", "5", "--delays", missing],
        "anchors --out": ["anchors", "--labels", str(labels), "--k", "2", "--out", missing],
        "train-toy --out": ["train-toy", "--steps", "1", "--train-images", "8", "--out", missing],
        "train-toy --history": ["train-toy", "--steps", "1", "--train-images", "8",
                                "--history", missing],
    }[case]
    rc = cli.main(argv)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# live roles over loopback TCP
# ---------------------------------------------------------------------------

def test_cloud_rejects_a_nonpositive_retrain_interval(capsys):
    # refused before the role listens, so nothing waits for an edge
    rc = cli.main(["cloud", "--port", "0", "--retrain-every", "0"])
    assert rc == 1
    assert "retrain_every must be >= 1" in capsys.readouterr().err
    rc = cli.main(["cloud", "--port", "0", "--retrain-steps", "0"])
    assert rc == 1
    assert "retrain_steps must be >= 1" in capsys.readouterr().err


def test_cloud_reports_a_port_it_cannot_listen_on(capsys):
    with socket.create_server(("127.0.0.1", 0)) as taken:
        rc = cli.main(["cloud", "--port", str(taken.getsockname()[1])])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["cloud", "--port", "70000"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cloud_and_edge_roles_over_tcp(capsys):
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]

    cloud_rc = {}

    def run_cloud():
        cloud_rc["rc"] = cli.main(["cloud", "--port", str(port),
                                   "--retrain-every", "4",
                                   "--retrain-steps", "2"])

    t = threading.Thread(target=run_cloud)
    t.start()
    # the cloud role accepts exactly one connection, so probe by retrying
    # the edge command itself until the listener is up
    import time
    rc = 1
    for _ in range(100):
        rc = cli.main(["edge", "--port", str(port), "--frames", "9"])
        if rc == 0:
            break
        time.sleep(0.1)
    t.join(timeout=60)
    printed = capsys.readouterr().out
    assert rc == 0
    assert cloud_rc.get("rc") == 0
    assert "uploaded 9 frames" in printed
    assert "served 9 uploads" in printed
    version = int(printed.split("model version now ")[1].split()[0])
    assert version >= 2                     # at least one push applied


def test_edge_reports_a_malformed_cloud_reply(capsys):
    srv = socket.create_server(("127.0.0.1", 0))
    srv.settimeout(60)                      # an edge that never connects frees the thread

    def fake_cloud():
        conn, _ = srv.accept()
        conn.settimeout(60)
        with conn, conn.makefile("rb") as reader:
            protocol.read_message(reader)
            reply = bytearray(protocol.encode_message(protocol.Message(protocol.ACK, 1)))
            reply[-1] ^= 0xFF               # the payload crc no longer matches
            conn.sendall(bytes(reply))

    t = threading.Thread(target=fake_cloud)
    t.start()
    try:
        rc = cli.main(["edge", "--port", str(srv.getsockname()[1]), "--frames", "3"])
    finally:
        t.join(timeout=60)
        srv.close()
    assert not t.is_alive()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad reply from the cloud: payload crc"), err


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parser_defaults_come_from_the_library():
    parse = cli.build_parser().parse_args
    detect = parse(["detect", "--config", "c", "--weights", "w"])
    nms = SoftNmsConfig()
    assert (detect.score_floor, detect.t_nms, detect.sigma) == \
        (nms.score_floor, nms.t_nms, nms.sigma)
    toy, sc = parse(["train-toy"]), ToyScenario()
    assert (toy.steps, toy.eta, toy.train_images, toy.eval_every) == \
        (sc.steps, sc.eta, sc.train_images, sc.eval_every)
    assert parse(["sim", "--path", "ecc"]).frames == Scenario().n_frames


def test_net_profile_accepts_every_link_field(capsys, tmp_path):
    prof = tmp_path / "net.json"
    fields = dataclasses.fields(cli.NetworkModel)
    prof.write_text(json.dumps({f.name: f.default for f in fields}))
    assert cli.main(["sim", "--path", "cloud", "--frames", "5",
                     "--net-profile", str(prof)]) == 0


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as e:
        cli.main([])
    assert e.value.code == 2
