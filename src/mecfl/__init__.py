"""Simulator of edge-assisted federated learning with energy-aware resource management.

The package couples a small one-vs-rest logistic-regression FL loop with a
per-round resource game: users pick how much data to offload to the edge
server and how much CPU to spend, the edge server splits the uplink
bandwidth, and closed-form best responses drive all three toward an
equilibrium that minimizes the synchronous round time under per-user
energy budgets. Brute-force numeric oracles certify every closed form.
"""
