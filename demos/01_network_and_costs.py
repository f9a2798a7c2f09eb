"""Build a caching network and price a placement by hand.

Walks through the basic objects: the benchmark topology, a random
problem instance, the hop matrix, and the cost of two placements (the
greedy nearest-EC one and the exact optimum) broken into its caching,
hit and miss parts.
"""

import numpy as np

from edgecache import (
    generate_instance,
    hop_matrix,
    penalized_cost,
    solve_exact,
    total_cost,
)
from edgecache.baselines import gca
from edgecache.harness import DATASET_RANGES, evaluation_topology, labels_of

topo = evaluation_topology()
print(f"benchmark network: {len(topo.nodes)} routers, {topo.num_links} links")
print(f"  access routers (leaves): {topo.access_routers}")
print(f"  edge clouds:             {topo.edge_clouds}")
print(f"  datacenter fallback:     {topo.datacenter_hops} hops")

hops = hop_matrix(topo)
print("\nhop matrix (AR rows x EC columns):")
print(hops)

inst = generate_instance(topo, num_flows=5, ranges=DATASET_RANGES, seed=42)
print("\na 5-flow instance:")
print("  content sizes (MB):  ", np.round(inst.content_size, 1))
print("  bandwidth (Mbps):    ", np.round(inst.bandwidth, 1))
print("  EC space (MB):       ", np.round(inst.ec_space, 1))
print("  mobility row sums:   ", np.round(inst.mobility.sum(axis=1), 3))

greedy = gca(inst)
bd = total_cost(inst, greedy)
print("\nnearest-EC placement:", labels_of(greedy.x))
print(f"  caching {bd.caching:.3f} + transmission {bd.transmission:.3f}"
      f" (hit {bd.hit:.3f}, miss {bd.miss:.3f})")
print(f"  total cost {bd.total:.3f}, feasible: {bd.feasible}")

optimal = solve_exact(inst)
print("\nexact optimum:", labels_of(optimal.assignment.x),
      f"({optimal.nodes_explored} nodes explored, proof: {optimal.proof})")
print(f"  total cost {optimal.cost.total:.3f}")
print(f"  greedy pays {penalized_cost(inst, greedy) / optimal.cost.total:.2f}x the optimum")
