"""CLI: the simulate/view/trace workflow end to end."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.image import read_ppm


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "cornell-box", "--photons", "100", "--out", "x.json"]
        )
        assert args.photons == 100
        assert args.scene == "cornell-box"
        # No flag sizes the trace wave: one width serves every session.
        assert not hasattr(args, "batch_size")

    def test_hex_seed(self):
        args = build_parser().parse_args(
            ["simulate", "s", "--seed", "0xBEEF", "--out", "x.json"]
        )
        assert args.seed == 0xBEEF

    # simulate runs the vector engine; the ids name it, as they did when
    # the CLI also ran the scalar oracle.
    @pytest.mark.parametrize("seed", ["-5", "0x1000000000000", str(2**80)],
                             ids=lambda seed: f"{seed}-vector")
    def test_seed_outside_the_generator_period_exits_2(
        self, capsys, tmp_path, seed
    ):
        out = tmp_path / "a.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "cornell-box", "--photons", "10", "--seed", seed,
                  "--out", str(out)])
        assert excinfo.value.code == 2
        assert "seed must lie in [0, 2**48)" in capsys.readouterr().err
        assert not out.exists()

    def test_photons_past_the_substream_period_exit_2(self, capsys, tmp_path):
        out = tmp_path / "a.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "cornell-box", "--photons", str(2**28 + 1),
                  "--out", str(out)])
        assert excinfo.value.code == 2
        assert "n_photons must be at most 268435456" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        # The engine picks the intersection accelerator.
        (["simulate", "cornell-box", "--accel", "flat"], "--accel"),
        (["trace", "cornell-box", "--accel", "linear"], "--accel"),
        (["serve", "--scene", "cornell-box", "--accel", "auto"], "--accel"),
        # One engine serves every request; the scalar oracle is Python only.
        (["simulate", "cornell-box", "--engine", "scalar"], "--engine"),
        (["simulate", "cornell-box", "--rng", "stream"], "--rng"),
        (["serve", "--scene", "cornell-box", "--engine", "vector"], "--engine"),
        (["trace", "cornell-box", "--engine", "vector"], "--engine"),
        # Pools always share the scene plane; there is no transport knob.
        (["simulate", "cornell-box", "--share-plane", "on"], "--share-plane"),
        # The forest cache behind --amortize is the one cache.
        (["serve", "--scene", "cornell-box", "--cache-results", "on"],
         "--cache-results"),
        # One wave width and early-stop step serve every session.
        (["simulate", "cornell-box", "--batch-size", "64"], "--batch-size"),
        (["serve", "--scene", "cornell-box", "--batch-size", "64"],
         "--batch-size"),
    ], ids=[
        "simulate-accel", "trace-accel", "serve-accel", "simulate-engine",
        "simulate-rng", "serve-engine", "trace-engine", "simulate-share-plane",
        "serve-cache-results", "simulate-batch-size", "serve-batch-size",
    ])
    def test_removed_flag_exits_2(self, capsys, tmp_path, argv, flag):
        """A removed flag is refused, not ignored: exit 2, the flag named,
        nothing written."""
        out = tmp_path / "x.json"
        if argv[0] == "simulate":
            argv = [*argv, "--photons", "10", "--out", str(out)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv, out=io.StringIO())
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repeat_flag(self):
        args = build_parser().parse_args(
            ["simulate", "s", "--repeat", "3", "--out", "x.json"]
        )
        assert args.repeat == 3
        args = build_parser().parse_args(["simulate", "s", "--out", "x.json"])
        assert args.repeat == 1

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--scene", "cornell-box",
             "--scene", "gen:office-8@0xBEEF",
             "--port", "8080", "--max-programs", "2",
             "--pool-size", "3", "--queue-limit", "4",
             "--deadline", "5.5"]
        )
        assert args.scene == ["cornell-box", "gen:office-8@0xBEEF"]
        assert args.port == 8080
        assert args.max_programs == 2
        assert args.pool_size == 3
        assert args.queue_limit == 4
        assert args.deadline == 5.5

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--scene", "s"])
        assert args.port == 0 and args.host == "127.0.0.1"
        assert not hasattr(args, "engine")
        assert args.max_bytes is None


class TestSimulateUsageErrors:
    """Config rejections surface as argparse usage errors, not tracebacks."""

    def test_zero_repeat_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["simulate", "cornell-box", "--photons", "10",
                 "--repeat", "0", "--out", "x.json"]
            )
        assert excinfo.value.code == 2
        assert "--repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    def test_non_finite_sigma_exits_2(self, tmp_path, capsys, sigma):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["simulate", "cornell-box", "--photons", "10",
                 "--sigma", sigma, "--out", str(out)]
            )
        assert excinfo.value.code == 2
        assert "threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["inf", "1e400", "nan", "0"])
    def test_non_finite_target_error_exits_2(self, tmp_path, capsys, target):
        """``--target-error inf`` would stop after the first batch and
        exit 0 with a truncated answer; it is a usage error."""
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["simulate", "cornell-box",
                 "--photons", "20000", "--target-error", target,
                 "--out", str(out)]
            )
        assert excinfo.value.code == 2
        assert "target_rel_error" in capsys.readouterr().err
        assert not out.exists()


class TestServeCommand:
    def test_no_scene_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2
        assert "--scene" in capsys.readouterr().err

    def test_unknown_scene_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--scene", "no-such-scene"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "no-such-scene" in err and "usage:" in err

    def test_bad_pool_size_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--scene", "cornell-box", "--pool-size", "0"])
        assert excinfo.value.code == 2
        assert "sessions_per_scene" in capsys.readouterr().err

    def test_boot_serve_sigterm(self, tmp_path):
        """`repro serve` on two scenes and a 2-worker pool: served bytes
        are `repro simulate`'s, one-shot and streamed; a 70 KB request
        line and a 70 KB header are each a 400 at the socket and the
        service still serves; SIGTERM prints `bye`, exits 0 and leaves
        no plane segment behind, none left to the resource tracker."""
        import os
        import re
        import signal
        import socket
        import subprocess
        import sys

        from repro.parallel.shmplane import leaked_segments
        from repro.service import http_request, simulate_path

        scenes = ("cornell-box", "gen:office-8@0xBEEF")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--scene", scenes[0],
             "--scene", scenes[1], "--workers", "2", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            # The references are written while the service boots.
            expected = {}
            for spec in scenes:
                path = tmp_path / f"{spec.replace(':', '_')}.json"
                scene_args = (
                    ["--gen", spec[4:]] if spec.startswith("gen:") else [spec]
                )
                assert main(["simulate", *scene_args, "--photons", "3000",
                             "--out", str(path)], out=io.StringIO()) == 0
                expected[spec] = path.read_bytes()
            port = None
            for line in proc.stdout:
                match = re.search(r"listening on http://[\d.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "no readiness line before stdout closed"

            def served(spec, stream=False):
                status, _, body = http_request(
                    "127.0.0.1", port, "POST", simulate_path(spec, stream),
                    {"photons": 3000, "deadline": 300.0}, timeout=300)
                assert status == 200, (spec, status, body[:200])
                return body.strip().split(b"\n")[-1] if stream else body

            def raw_status(payload: bytes) -> int:
                address = ("127.0.0.1", port)
                with socket.create_connection(address, timeout=60) as sock:
                    sock.sendall(payload)
                    reply = b""
                    while b"\r\n" not in reply:
                        chunk = sock.recv(4096)
                        if not chunk:
                            break
                        reply += chunk
                return int(reply.split(b" ", 2)[1])

            assert http_request("127.0.0.1", port, "GET", "/healthz")[0] == 200
            for spec in scenes:
                assert served(spec) == expected[spec], spec
                assert served(spec, stream=True) == expected[spec], spec
            pad = b"a" * 70_000
            assert raw_status(
                b"GET /healthz?pad=" + pad + b" HTTP/1.1\r\nHost: x\r\n\r\n"
            ) == 400
            assert raw_status(
                b"GET /healthz HTTP/1.1\r\nX-Pad: " + pad + b"\r\n\r\n"
            ) == 400
            assert served(scenes[0]) == expected[scenes[0]]
            proc.send_signal(signal.SIGTERM)
            # EOF comes once every holder of the pipe has exited, the
            # resource tracker included: it has reported any segment it
            # had to unlink for the service by then.
            tail = proc.stdout.read()
            assert "bye" in tail
            assert "resource_tracker" not in tail, tail
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                # SIGTERM closes the pools; a SIGKILL of the service
                # alone would orphan its workers.
                proc.terminate()
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        assert leaked_segments() == []


class TestScenesCommand:
    def test_lists_all(self):
        out = io.StringIO()
        assert main(["scenes"], out=out) == 0
        text = out.getvalue()
        for name in ("cornell-box", "harpsichord-room", "computer-lab"):
            assert name in text


class TestSceneSpecs:
    """--scene-file / --gen / save-scene: the ingestion surface as flags."""

    def test_scene_file_and_gen_flags_parse(self):
        args = build_parser().parse_args(
            ["simulate", "--scene-file", "s.json", "--out", "x.json"]
        )
        assert str(args.scene_file) == "s.json"
        assert args.scene is None
        args = build_parser().parse_args(
            ["simulate", "--gen", "office-8@3", "--out", "x.json"]
        )
        assert args.gen == "office-8@3"

    def test_no_scene_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--photons", "10", "--out", "x.json"])
        assert excinfo.value.code == 2
        assert "exactly one scene" in capsys.readouterr().err

    def test_two_scenes_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["simulate", "cornell-box", "--gen", "office-8",
                 "--photons", "10", "--out", "x.json"]
            )
        assert excinfo.value.code == 2
        assert "exactly one scene" in capsys.readouterr().err

    def test_bad_gen_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["simulate", "--gen", "atrium-64", "--photons", "10",
                 "--out", "x.json"]
            )
        assert excinfo.value.code == 2
        assert "<kind>-<units>" in capsys.readouterr().err

    def test_schema_violation_exits_2_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"format": "photon-scene", "version": 99, "name": "x", '
            '"materials": {"m": {}}, "patches": []}'
        )
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["simulate", "--scene-file", str(bad), "--photons", "10",
                 "--out", "x.json"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "version" in err and str(bad) in err

    def test_save_scene_round_trip_bytes(self, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        out = io.StringIO()
        assert main(["save-scene", "gen:office-5@3", "--out", str(first)], out=out) == 0
        assert "patches" in out.getvalue()
        rc = main(
            ["save-scene", f"file:{first}", "--out", str(second)],
            out=io.StringIO(),
        )
        assert rc == 0
        assert first.read_bytes() == second.read_bytes()

    def test_gen_scene_simulates_and_views(self, tmp_path):
        answer = tmp_path / "g.json"
        ppm = tmp_path / "g.ppm"
        rc = main(
            ["simulate", "--gen", "office-5@3", "--photons", "200",
             "--out", str(answer)],
            out=io.StringIO(),
        )
        assert rc == 0
        rc = main(
            ["view", "gen:office-5@3", str(answer), "--out", str(ppm),
             "--width", "32", "--height", "24"],
            out=io.StringIO(),
        )
        assert rc == 0
        assert read_ppm(ppm).shape == (24, 32, 3)

    def test_file_flag_matches_gen_bytes(self, tmp_path):
        """One scene, two routes (--gen on a 2-process pool and
        --scene-file of its saved form on one process): identical
        answer bytes."""
        scene_file = tmp_path / "s.json"
        main(["save-scene", "gen:den-6@5", "--out", str(scene_file)],
             out=io.StringIO())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        common = ["--photons", "200", "--seed", "0xBEEF"]
        assert main(
            ["simulate", "--gen", "den-6@5", *common, "--workers", "2",
             "--out", str(a)],
            out=io.StringIO(),
        ) == 0
        assert main(
            ["simulate", "--scene-file", str(scene_file), *common, "--out", str(b)],
            out=io.StringIO(),
        ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulateViewWorkflow:
    def test_full_workflow(self, tmp_path):
        answer = tmp_path / "a.json"
        ppm = tmp_path / "v.ppm"
        out = io.StringIO()
        rc = main(
            [
                "simulate",
                "cornell-box",
                "--photons",
                "400",
                "--out",
                str(answer),
            ],
            out=out,
        )
        assert rc == 0
        assert answer.exists()
        assert "bins" in out.getvalue()

        rc = main(
            [
                "view",
                "cornell-box",
                str(answer),
                "--out",
                str(ppm),
                "--width",
                "24",
                "--height",
                "18",
            ],
            out=io.StringIO(),
        )
        assert rc == 0
        assert read_ppm(ppm).shape == (18, 24, 3)

    def test_view_custom_camera(self, tmp_path):
        answer = tmp_path / "a.json"
        main(
            ["simulate", "cornell-box", "--photons", "200", "--out", str(answer)],
            out=io.StringIO(),
        )
        ppm = tmp_path / "custom.ppm"
        rc = main(
            [
                "view",
                "cornell-box",
                str(answer),
                "--out",
                str(ppm),
                "--width",
                "8",
                "--height",
                "8",
                "--eye",
                "1.0",
                "1.5",
                "3.5",
                "--look-at",
                "1.0",
                "0.8",
                "0.5",
                "--fov",
                "50",
            ],
            out=io.StringIO(),
        )
        assert rc == 0 and ppm.exists()

    def test_unknown_scene(self, tmp_path):
        with pytest.raises(KeyError):
            main(
                ["simulate", "atrium", "--photons", "10", "--out", str(tmp_path / "x")],
                out=io.StringIO(),
            )

    def test_repeat_serves_warm_requests(self, tmp_path):
        """--repeat N runs one warm session, on one process or a warm
        pool; per-request lines appear and the answer file is the same
        as a single-process single run's."""
        single = tmp_path / "b.json"
        main(
            ["simulate", "cornell-box", "--photons", "200",
             "--out", str(single)],
            out=io.StringIO(),
        )
        for workers in ("1", "2"):
            answer = tmp_path / f"w{workers}.json"
            out = io.StringIO()
            rc = main(
                ["simulate", "cornell-box", "--photons", "200", "--workers",
                 workers, "--repeat", "3", "--out", str(answer)],
                out=out,
            )
            assert rc == 0
            text = out.getvalue()
            assert "request 1/3" in text and "request 3/3" in text
            assert "warm" in text
            assert answer.read_bytes() == single.read_bytes(), workers

    def test_repeat_prints_aggregate_summary(self, tmp_path):
        """--repeat N ends with one aggregate photons/sec line covering
        the whole warm session (overall and warm-only rates)."""
        out = io.StringIO()
        rc = main(
            ["simulate", "cornell-box", "--photons", "200",
             "--repeat", "3", "--out", str(tmp_path / "a.json")],
            out=out,
        )
        assert rc == 0
        lines = out.getvalue().splitlines()
        aggregate = [l for l in lines if l.startswith("aggregate:")]
        assert len(aggregate) == 1
        assert "3 requests" in aggregate[0]
        assert "600 photons" in aggregate[0]
        assert "/s overall" in aggregate[0]
        assert "/s warm" in aggregate[0]

    def test_single_request_prints_no_aggregate(self, tmp_path):
        out = io.StringIO()
        main(
            ["simulate", "cornell-box", "--photons", "100",
             "--out", str(tmp_path / "a.json")],
            out=out,
        )
        assert "aggregate:" not in out.getvalue()

    def test_two_process_pool_writes_the_single_process_answer(self, tmp_path):
        """Crossing the process boundary (scene plane in, result blocks
        out) cannot move a single answer byte — on a 30-patch scene or
        a 1,902-patch one."""
        for scene in ("cornell-box", "computer-lab"):
            pool, single = tmp_path / "w2.json", tmp_path / "w1.json"
            for path, workers in ((pool, "2"), (single, "1")):
                rc = main(
                    ["simulate", scene, "--photons", "200",
                     "--workers", workers, "--out", str(path)],
                    out=io.StringIO(),
                )
                assert rc == 0
            assert pool.read_bytes() == single.read_bytes()

    def test_view_default_camera_comes_from_scene(self, tmp_path):
        """`repro view` with no --eye frames the scene's registered
        default camera (folded into the scene registry)."""
        answer = tmp_path / "a.json"
        main(
            ["simulate", "cornell-box", "--photons", "200", "--out", str(answer)],
            out=io.StringIO(),
        )
        ppm = tmp_path / "default.ppm"
        rc = main(
            ["view", "cornell-box", str(answer), "--out", str(ppm),
             "--width", "8", "--height", "8"],
            out=io.StringIO(),
        )
        assert rc == 0
        from repro.scenes import CORNELL_DEFAULT_CAMERA, cornell_box

        assert cornell_box().default_camera == CORNELL_DEFAULT_CAMERA


class TestTraceCommand:
    def test_trace_prints_figure(self):
        out = io.StringIO()
        rc = main(
            [
                "trace",
                "cornell-box",
                "--platform",
                "sp2",
                "--ranks",
                "1",
                "2",
                "4",
                "--duration",
                "120",
                "--read-at",
                "100",
            ],
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert "IBM SP-2" in text
        assert "speedup@100s" in text

    def test_unknown_platform(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "cornell-box", "--platform", "cray"], out=io.StringIO())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--platform" in err and "indy-cluster, power-onyx, sp2" in err

    @pytest.mark.parametrize("extra, named", [
        (["--ranks", "0"], "ranks"),
        (["--duration", "-5"], "duration"),
    ], ids=["ranks-0", "negative-duration"])
    def test_bad_model_inputs_exit_2(self, capsys, extra, named):
        """Like every `simulate` config error: usage + message, no traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "cornell-box", *extra], out=io.StringIO())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and named in err


class TestInputUsageErrors:
    """Bad `trace` and `view` input is a usage error: the usage line and
    a message naming what was wrong, exit 2, no traceback."""

    @pytest.fixture(scope="class")
    def answer(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("answer") / "a.json"
        main(["simulate", "cornell-box", "--photons", "50", "--out", str(path)],
             out=io.StringIO())
        return path

    @pytest.mark.parametrize("argv, named", [
        (["trace", "cornell-box", "--platform", "nope"], "--platform"),
        (["trace", "cornell-box", "--read-at", "-5"], "--read-at"),
        (["trace", "cornell-box", "--read-at", "nan"], "--read-at"),
        (["trace", "cornell-box", "--duration", "nan"], "duration"),
        (["view", "cornell-box", "{answer}", "--width", "0"], "resolution"),
        (["view", "cornell-box", "{answer}", "--height", "0"], "resolution"),
        (["view", "cornell-box", "{answer}", "--fov", "0"], "fov"),
        (["view", "cornell-box", "{answer}", "--fov", "nan"], "fov"),
        (["view", "cornell-box", "{answer}", "--eye", "1", "1", "1",
          "--look-at", "1", "1", "1"], "degenerate camera"),
        (["view", "cornell-box", "{missing}"], "no-such.json"),
    ], ids=["platform-nope", "read-at-negative", "read-at-nan", "duration-nan",
            "width-0", "height-0", "fov-0", "fov-nan", "eye-is-look-at",
            "missing-answer"])
    def test_exits_2(self, capsys, tmp_path, answer, argv, named):
        argv = [
            arg.format(answer=answer, missing=tmp_path / "no-such.json")
            for arg in argv
        ]
        if argv[0] == "view":
            argv += ["--out", str(tmp_path / "x.ppm")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv, out=io.StringIO())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and named in err
        assert not (tmp_path / "x.ppm").exists()

    def test_malformed_answer_file_exits_2(self, capsys, tmp_path, answer):
        """A policy field of the wrong type is a usage error naming it,
        not a traceback."""
        doc = json.loads(answer.read_text())
        doc["policy"]["min_count"] = "16"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as excinfo:
            main(["view", "cornell-box", str(bad), "--out", str(tmp_path / "x.ppm")],
                 out=io.StringIO())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "min_count" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.ppm").exists()


class TestLintCommand:
    """`repro lint` exit-code contract: 0 clean / 1 findings / 2 usage."""

    FIXTURES = "tests/analysis/fixtures"

    def fixture(self, name):
        from pathlib import Path

        return str(Path(__file__).parent / "analysis" / "fixtures" / name)

    def test_good_fixture_exits_zero(self):
        out = io.StringIO()
        rc = main(["lint", self.fixture("hyg_broad_except_good.py")], out=out)
        assert rc == 0
        assert "0 finding(s), 1 file(s)" in out.getvalue()

    def test_bad_fixture_exits_one_with_finding_line(self):
        import re

        out = io.StringIO()
        rc = main(["lint", self.fixture("hyg_broad_except_bad.py")], out=out)
        assert rc == 1
        # The contract format tools and humans grep for: path:line: rule msg
        assert re.search(
            r"hyg_broad_except_bad\.py:4: hyg-broad-except .+swallows",
            out.getvalue(),
        )

    def test_unknown_rule_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["lint", "--rule", "no-such-rule", self.fixture("hyg_broad_except_bad.py")],
                out=io.StringIO(),
            )
        assert exc.value.code == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def (:\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(broken)], out=io.StringIO())
        assert exc.value.code == 2
        assert "parse-error" in capsys.readouterr().err

    def test_rule_filter_silences_other_rules(self):
        out = io.StringIO()
        rc = main(
            ["lint", "--rule", "det-random", self.fixture("hyg_broad_except_bad.py")],
            out=out,
        )
        assert rc == 0

    def test_exclude_filters_tree(self, tmp_path):
        keep = tmp_path / "keep"
        skip = tmp_path / "skip"
        keep.mkdir()
        skip.mkdir()
        (keep / "ok.py").write_text("x = 1\n", encoding="utf-8")
        (skip / "bad.py").write_text(
            "def f(w):\n"
            "    try:\n"
            "        return w()\n"
            "    except Exception:\n"
            "        return None\n",
            encoding="utf-8",
        )
        out = io.StringIO()
        rc = main(["lint", "--exclude", "skip", str(tmp_path)], out=out)
        assert rc == 0
        assert "1 file(s)" in out.getvalue()

    def test_json_format_parses(self):
        import json

        out = io.StringIO()
        rc = main(
            ["lint", "--format", "json", self.fixture("shm_lifecycle_bad.py")],
            out=out,
        )
        assert rc == 1
        doc = json.loads(out.getvalue())
        assert [f["rule"] for f in doc["findings"]] == ["shm-lifecycle"]
        assert doc["checked_files"] == 1

    def test_module_entry_point_matches_cli(self):
        from repro.analysis.engine import main as analysis_main

        out_cli = io.StringIO()
        out_mod = io.StringIO()
        target = self.fixture("async_blocking_bad.py")
        assert main(["lint", target], out=out_cli) == analysis_main(
            [target], out=out_mod
        )
        assert out_cli.getvalue() == out_mod.getvalue()
