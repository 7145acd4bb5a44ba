"""Admissible (lambda, delta) pairs, super-level sets, semi-mixedness, and
scale-comparable membership.

Run:  python3 demos/sparseness_and_pairs.py
"""

import math

from morrey_sparse.grid import Grid3
from morrey_sparse.fields import vorticity_blob
from morrey_sparse.sparseness import (
    InadmissiblePairError,
    admissible_pair,
    cstar,
    eps_const,
    kappa,
    semi_mixed,
    superlevel_sets,
    z_alpha_member,
)

print("canonical pairs and derived constants (cal is the recorded bump-chain")
print("prefactor standing in for the generic constant):")
print(f"{'delta':>6} {'lambda':>9} {'kappa':>9} {'c*':>11} {'eps(p=2,inf,1/2)':>17}")
for d in (0.65, 0.7, 0.75, 0.85, 0.95):
    try:
        pair = admissible_pair(d)
    except InadmissiblePairError as exc:
        print(f"{d:6.2f}  inadmissible: {exc}")
        continue
    print(f"{d:6.2f} {pair.lam:9.6f} {kappa(pair):9.6f} {cstar(pair):11.4e} "
          f"{eps_const(pair, 2.0, math.inf, 0.5):17.4e}")

grid = Grid3(32)
pair = admissible_pair(0.75)
blob = vorticity_blob(grid, (16, 16, 16), sigma=0.45)
sets = superlevel_sets(blob, pair.lam)
print(f"\nsuper-level sets of a vortex blob at lambda={pair.lam:.3f}:")
for label, S in sets.items():
    print(f"  {label}: {S.count:5d} voxels  (volume {S.volume:.4f})")

print("\nsemi-mixedness of the dominant set across scales:")
for r in (0.3, 0.6, 1.0, 1.5):
    res = semi_mixed(sets["S_1+"], r, pair.delta)
    print(f"  r={r:4.1f}: max density {res.max_density:.3f} at {res.witness} "
          f"-> {'semi-mixed' if res.ok else 'NOT semi-mixed'} at ratio {pair.delta}")

ok, witnesses = z_alpha_member(blob, 0.5, pair, c0=1.5)
print(f"\nscale-comparable membership (alpha=1/2, c0=1.5): "
      f"{'PASS' if ok else f'FAIL at {len(witnesses)} voxels'}")
