"""The repository benchmark: closed-loop serving workloads with
end-to-end metrics, per-layer spans and exactness oracles.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; see ``README.md`` in this
directory for the workloads and ``metrics.json`` for the metric
dictionary.
"""
