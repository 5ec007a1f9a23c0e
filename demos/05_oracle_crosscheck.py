"""Dual-route validation in miniature.

Every reduced formula in the package is judged by one definition-level
oracle: the defining double integral over both switching windows, taken
on a proper-time contour shifted off the real axis, where the Wightman
function is smooth. The transition probability is the correlation of a
detector with itself. This runs the small bundled grid and prints the
deviations the acceptance suite checks at scale.
"""
from udwmi.sweep import run_oracle_suite

report = run_oracle_suite("oracle_grid_smoke", workers=1)

for section in ("response", "correlation"):
    sec = report[section]
    print(f"{section}: ok={sec['ok']} max rel dev={sec['max_rel_dev']:.2e} "
          f"within combined errors={sec['all_within_combined_err']}")
    for rec in sec["points"]:
        p = rec["params"]
        keys = ("gap", "accel", "radius", "dz") if section == "response" \
            else ("gap_a", "accel", "radius", "sep", "dz")
        tag = ", ".join(f"{k}={p[k]}" for k in keys if k in p)
        print(f"  {tag}: rel dev {rec['rel_dev']:.2e} "
              f"(err {rec['err']:.1e} + oracle err {rec['oracle_err']:.1e})")
    print()

print("the sweep CLI exposes the full 27+12 point grid as "
      "`udwmi verify --grid oracle_grid`, and the corners of the presets "
      "as `udwmi verify --grid oracle_corners`")
