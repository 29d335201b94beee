#!/usr/bin/env python3
"""Dense ids without consensus: signup, ranking, assigner election.

Six clients sign up concurrently under adversarial delays.  Each server
orders every keycard in its own FIFO-broadcast log; a client elects the
first server whose log provably ranked it (f+1 confirmations) and collects a
quorum certificate over [Assignment, (assigner, index), keycard].  Indices
stay below the process count even though no two processes ever agree on a
total order of clients.
"""

from batchcast.procs import client
from batchcast.properties import check_trace
from batchcast.scenarios import concurrent_signup, run_scenario

sim = run_scenario(concurrent_signup(n_clients=6), seed=42)

print("assigned ids (domain = assigner server, index = log position):")
for j in range(6):
    machine = sim.machines[client(j)]
    ident = machine.assignment.ident
    print(f"  C{j} -> domain S{ident[0]}, index {ident[1]}")

verdicts = check_trace(sim.trace)
for name in ("dir_bijectivity", "signup_validity", "self_knowledge",
             "density", "write_once_assigner"):
    print(f"{name}: {'PASS' if verdicts[name].ok else 'FAIL'}")

signups = [ev.time for ev in sim.trace if ev.kind == "signup"]
completes = [ev.time for ev in sim.trace if ev.kind == "signup_complete"]
print(f"\nsignups at t={signups}, completions at t={completes}")
