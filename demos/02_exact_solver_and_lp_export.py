"""Cross-check the built-in solver against the exported MILP.

The optimization problem is built once as a sparse MILP (named columns
and rows), with the nonlinear storage term linearized through auxiliary
variables, and can be written out in the standard LP text format.  This
demo exports one instance, checks the model's size against the
constraint census, and (when scipy is installed) hands the same sparse
model to an independent MILP solver to confirm both agree.
"""

from pathlib import Path

import numpy as np

from edgecache import export_milp, generate_instance, solve_exact
from edgecache.harness import DATASET_RANGES, evaluation_topology
from edgecache.lpfile import constraint_census, milp_model, variable_census

topo = evaluation_topology()
inst = generate_instance(topo, num_flows=5, ranges=DATASET_RANGES, seed=7)

text = export_milp(inst)
out = Path(__file__).parent / "demo_output"
out.mkdir(exist_ok=True)
(out / "instance.lp").write_text(text)
print(f"wrote {out / 'instance.lp'} ({len(text.splitlines())} lines)")

model = milp_model(inst)
K, A = 5, topo.num_access_routers
E, L = topo.num_edge_clouds, topo.num_links
print(f"\nmodel: {len(model.columns)} variables, {len(model.row_names)} constraints, "
      f"{model.num_binary} binaries, {len(model.entries)} nonzeros")
print("census check:", variable_census(K, A, E, L)["total"], "variables and",
      constraint_census(K, A, E, L)["total"], "rows expected")

ours = solve_exact(inst)
print(f"\nbranch and bound: TC = {ours.cost.total:.6f} ({ours.proof})")

try:
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array
except ImportError:
    print("scipy not installed; skipping the external cross-check")
else:
    n = len(model.columns)
    rows, cols, values = zip(*model.entries)
    senses, rhs = np.array(model.senses), np.array(model.rhs)
    c = np.zeros(n)
    for j, v in model.objective:
        c[j] = v
    integrality = (np.arange(n) < model.num_binary).astype(int)
    res = milp(
        c=c,
        constraints=LinearConstraint(
            csr_array((values, (rows, cols)), shape=(len(model.row_names), n)),
            np.where(senses == "<=", -np.inf, rhs),
            np.where(senses == ">=", np.inf, rhs),
        ),
        integrality=integrality,
        bounds=Bounds(0, np.where(integrality == 1, 1.0, np.inf)),
    )
    print(f"external MILP solver:  TC = {res.fun + model.constant:.6f}")
    print(f"agreement: {abs(res.fun + model.constant - ours.cost.total):.2e}")
