"""End-to-end benchmark of the TencentRec reproduction, split by layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; ``python3 perfbench/report.py`` runs
all of them, untraced and traced, and prints the tracing overhead.
"""
