"""TeraHAC benchmark: end-to-end and per-layer cost of one engine call.

Run ``python3 hacbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; workloads and metrics are
declared in ``BENCHMARK.json``.
"""
