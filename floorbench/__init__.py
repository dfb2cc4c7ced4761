"""Floor-simulation benchmark: canonical workloads, reference checks, layer tracing.

``python3 floorbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from the repository root and prints its metrics as JSON.
Everything here drives the engine through its public API only; nothing under
``src/`` knows this package exists.
"""
