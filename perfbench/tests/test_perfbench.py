#!/usr/bin/env python3
"""The benchmark's own tests: run with `python3 perfbench/tests/test_perfbench.py`.

They build the benchmark (as run.py does) and run short loopback sessions:
  * breakdown sums: per-layer self times + unattributed == mean I/O latency,
    the unattributed share stays bounded, and no layer reads zero on a
    workload where it runs;
  * verifier self-test: a flipped byte, a read of never-written blocks and
    a lost write each count as failed and fail the run;
  * data-path guard: the wrong negotiated path or a shm demotion make the
    run invalid (non-zero exit);
  * the run.py output format.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("qd1-4k-shm", "qd32-128k-tcp", "qd32-128k-shm")
# Σ self + unattributed exceeds the latency only by the time both processes
# work on the same I/O at once (a send still returning while the peer
# already handles it).
BREAKDOWN_TOLERANCE = 0.05
# Largest share of an I/O's latency no span may explain. What is left is
# socket transit and reader-thread wake-up, which no wrapped interface
# sees: 0.27-0.37 at QD1, 0.02-0.23 at QD32 over 2 s runs. A wrapper that
# stops recording moves its layer's time here, so losing net or nvmf at
# QD1, or most of sim at QD32, fails the check.
UNATTRIBUTED_MAX = {"qd1-4k-shm": 0.45, "qd32-128k-tcp": 0.35, "qd32-128k-shm": 0.35}


def pb(traced, workload, *extra):
    exe = os.path.join(run.BUILD, "pb_traced" if traced else "pb")
    cmd = [exe, "load", "--workload", workload, "--seed", "7",
           "--seconds", "2"] + list(extra)
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


class Breakdown(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.layers = {}
        for w in WORKLOADS:
            rc, res, err = pb(True, w)
            assert rc == 0 and res and res["correct"], err
            cls.layers[w] = res["layers"]

    def test_every_per_layer_metric_reported(self):
        names = [m["name"] for m in run.spec()["per_layer"]]
        for w in WORKLOADS:
            for n in names:
                if n != "trace.overhead_frac":  # added by run.py
                    self.assertIn(n, self.layers[w], (w, n))

    def test_self_times_sum_to_latency(self):
        for w in WORKLOADS:
            m = self.layers[w]
            parts = sum(m["%s.self_us_per_io" % l]
                        for l in ("nvmf", "net", "sim", "af", "ssd"))
            total = parts + m["trace.unattributed_us_per_io"]
            lat = m["trace.io_latency_us"]
            self.assertGreater(m["trace.ios_analysed"], 100, w)
            self.assertLessEqual(abs(total - lat), BREAKDOWN_TOLERANCE * lat,
                                 "%s: %.3f + %.3f != %.3f" % (
                                     w, parts, m["trace.unattributed_us_per_io"], lat))

    def test_unattributed_share_is_bounded(self):
        for w in WORKLOADS:
            self.assertLessEqual(self.layers[w]["trace.unattributed_frac"],
                                 UNATTRIBUTED_MAX[w], w)

    def test_no_running_layer_reads_zero(self):
        for w in WORKLOADS:
            m = self.layers[w]
            for n in ("ssd.complete_wait_us", "ssd.submit_us", "nvmf.ini.submit_us",
                      "nvmf.ini.handle_us", "nvmf.tgt.handle_us", "net.ini.send_us",
                      "net.tgt.send_us", "net.wire_bytes_per_io",
                      "sim.ini.tasks_per_io", "sim.tgt.tasks_per_io",
                      "sim.ini.queue_wait_us_p50", "sim.tgt.queue_wait_us_p50",
                      "sim.ini.busy_frac", "sim.tgt.busy_frac",
                      "sim.ini.cpu_us_per_io", "sim.tgt.cpu_us_per_io",
                      "alloc.ini.per_io", "alloc.tgt.per_io",
                      "pdu.msgs_per_read", "pdu.msgs_per_write",
                      "telemetry.events_per_io", "nvmf.self_us_per_io",
                      "net.self_us_per_io", "sim.self_us_per_io",
                      "ssd.self_us_per_io"):
                self.assertGreater(m[n], 0, (w, n))
        for w in ("qd1-4k-shm", "qd32-128k-shm"):
            self.assertGreater(self.layers[w]["af.copies_per_write"], 0, w)
            self.assertGreater(self.layers[w]["af.zc_begin_us"], 0, w)
            self.assertGreater(self.layers[w]["af.self_us_per_io"], 0, w)
        self.assertEqual(self.layers["qd32-128k-tcp"]["af.copies_per_io"], 0)

    def test_message_counts_follow_the_data_path(self):
        # §4.4.2: the shm flow needs 2 PDUs per write, TCP's R2T flow 4.
        self.assertAlmostEqual(self.layers["qd32-128k-shm"]["pdu.msgs_per_write"], 2, delta=0.05)
        self.assertAlmostEqual(self.layers["qd32-128k-tcp"]["pdu.msgs_per_write"], 4, delta=0.05)


class Verifier(unittest.TestCase):
    def test_each_fault_fails_the_run(self):
        for fault in ("flip", "unwritten", "lost-write"):
            rc, res, err = pb(False, "qd1-4k-shm", "--fault", fault)
            self.assertNotEqual(rc, 0, fault)
            self.assertIsNotNone(res, err)
            self.assertFalse(res["correct"], fault)
            self.assertGreater(res["failed"], 0, fault)
            self.assertGreater(res["metrics"]["failed_frac"]["value"], 0, fault)
            self.assertGreater(res["mismatched"], 0, fault)

    def test_clean_run_has_no_failures(self):
        rc, res, err = pb(False, "qd32-128k-tcp")
        self.assertEqual(rc, 0, err)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(res["metrics"]["failed_frac"]["value"], 0)
        self.assertEqual(res["guard"]["data_path"], "tcp")


class Guard(unittest.TestCase):
    def test_wrong_path_is_invalid(self):
        for w in ("qd1-4k-shm", "qd32-128k-tcp"):
            rc, res, err = pb(False, w, "--fault", "wrong-path")
            self.assertNotEqual(rc, 0, w)
            self.assertIsNone(res, w)
            self.assertIn("invalid run", err)

    def test_demotion_is_invalid(self):
        rc, res, err = pb(False, "qd1-4k-shm", "--fault", "demote")
        self.assertNotEqual(rc, 0)
        self.assertIn("invalid run", err)
        self.assertFalse(res["correct"])
        self.assertGreater(res["guard"]["shm_demotions"], 0)


class Output(unittest.TestCase):
    def run_py(self, *args, cwd=run.ROOT):
        return subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                              cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=400)

    def test_output_lines(self):
        spec = run.spec()
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            p = self.run_py("--workload", "qd32-128k-shm", "--seed", "3",
                            "--seconds", "1", "--trace", trace)
            self.assertEqual(p.returncode, 0, p.stderr)
            out = json.loads(p.stdout.strip().splitlines()[-1])
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(out["correct"])
            self.assertEqual(list(out["metrics"]), [m["name"] for m in spec[key]])
            for m in spec[key]:
                self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
            if trace == "0":
                for m in spec[key]:
                    self.assertGreater(out["metrics"][m["name"]]["value"], 0, m["name"])
        record = os.path.join(run.OUT, "result_qd32-128k-shm_seed3_trace0.json")
        with open(record) as f:
            env = json.load(f)["untraced"]["env"]
        for k in ("cpu_model", "nproc", "target_cpus", "load_cpus", "build_type",
                  "seed", "network"):
            self.assertIn(k, env)
        self.assertEqual(env["network"], "loopback")

    def test_refuses_without_sources(self):
        bare = os.path.join(run.OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = self.run_py("--workload", "qd1-4k-shm", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    run.build()
    unittest.main()
