"""The predictive distribution: likelihood, sampling, variance, regularizers.

Checks the closed-form mixture variance against Monte-Carlo sampling and
shows what the two variance regularizers measure.

Run:  python demos/03_mixture_of_logistics.py
"""

import numpy as np

from lvrc import mol

rng = np.random.default_rng(7)

print("== a 4-component mixture ==")
# one flat output row: 4 weight logits, 4 locations, 4 log scales
raw = np.array([1.0, 0.3, -0.5, -1.0,
                -0.6, -0.1, 0.2, 0.9,
                -2.0, -1.5, -1.0, -0.5])
params = mol.constrain(raw)
print("weights:", np.round(params.gammas, 4))
print("mean:   ", round(float(mol.mixture_mean(params)), 6))

analytic = float(mol.mixture_variance(params))
draws = mol.sample_n(params, rng, 1_000_000)
print(f"variance: analytic {analytic:.6f} vs Monte-Carlo {draws.var():.6f} "
      f"({abs(draws.var() - analytic) / analytic:.2%} off)")

print("\n== log-likelihood is stable far into the tails ==")
for x in (0.0, 5.0, 50.0, 500.0):
    print(f"log q({x:6.1f}) = {float(mol.log_prob(x, params)):12.2f}")

print("\n== variance regularizers ==")
batch = mol.MoLParams(
    gammas=np.tile(params.gammas, (3, 1)),
    mus=np.tile(params.mus, (3, 1)),
    scales=np.stack([params.scales, 2 * params.scales, 4 * params.scales]),
)
print(f"linear (mean sigma^2):  {mol.jvar_linear(batch):.6f}")
print(f"log (mean ln(sigma+a)): {mol.jvar_log(batch, a=1e-4):.6f}")
print("scaling every sigma by 10 shifts the log form by ~ln(10):")
wide = mol.MoLParams(batch.gammas, 10 * batch.mus, 10 * batch.scales)
print(f"  {mol.jvar_log(wide, a=1e-4) - mol.jvar_log(batch, a=1e-4):.4f} vs {np.log(10):.4f}")

print("\n== broad baseline component (training-only) ==")
spec = mol.BaselineSpec(gamma0=0.3, mu0=0.0, s0=5.0)
x = 30.0  # an outlier
train_lp = float(mol.baseline_log_prob(x, raw, spec, "train"))
infer_lp = float(mol.baseline_log_prob(x, raw, spec, "infer"))
print(f"outlier x={x}: train-mode log q = {train_lp:.2f} (baseline catches it), "
      f"infer-mode log q = {infer_lp:.2f}")
