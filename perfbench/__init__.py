"""End-to-end benchmark of the CacheCatalyst reproduction.

``python3 perfbench/run.py --workload {fleet,revisit,serve} --seed N
--seconds S --trace {0,1}`` runs one workload in its own process; see
``perfbench/README.md`` for why each workload exists and what its
metrics mean.
"""
