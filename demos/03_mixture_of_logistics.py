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
mean, variance = mol.mixture_moments(params)
print("weights:", np.round(params.gammas, 4))
print("mean:   ", round(float(mean), 6))

analytic = float(variance)
draws = mol.sample(raw, mol.sample_noise(rng, 1, 1_000_000)[0])  # as decode draws
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
var = mol.mixture_moments(batch)[1]
print(f"linear (mean sigma^2):  {np.mean(mol.reg_term(var, 0.0, 'linear')):.6f}")
print(f"log (mean ln(sigma+a)): {np.mean(mol.reg_term(var, 1e-4, 'log')):.6f}")
print("scaling every sigma by 10 shifts the log form by ~ln(10):")
wide_var = mol.mixture_moments(mol.MoLParams(batch.gammas, 10 * batch.mus, 10 * batch.scales))[1]
shift = np.mean(mol.reg_term(wide_var, 1e-4, "log") - mol.reg_term(var, 1e-4, "log"))
print(f"  {shift:.4f} vs {np.log(10):.4f}")

print("\n== broad baseline component (training-only) ==")
gamma0 = 0.3  # the weight of the broad logistic (mol.BASELINE_MU0, mol.BASELINE_S0)
x = 30.0  # an outlier
train_lp = float(-mol.head_terms(np.array([x]), raw[None], 1, gamma0=gamma0, grads=False).nll[0])
infer_lp = float(mol.log_prob(x, params))  # the plain mixture, which decode samples
print(f"outlier x={x}: train-mode log q = {train_lp:.2f} (baseline catches it), "
      f"infer-mode log q = {infer_lp:.2f}")
