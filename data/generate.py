"""Regenerate the bundled example cohorts (fixed seed, log-logistic laws).

The experimental arm is drawn with a higher scale (longer survival) than the
control arm, so the bundled analysis shows an apparent treatment benefit.
"""

import numpy as np

import oslr


def draw(rng, n, shape, scale, label):
    u = rng.random(n)
    t = scale * (u / (1.0 - u)) ** (1.0 / shape)
    c = rng.uniform(1.5, 6.0, n)
    times = np.round(np.minimum(t, c), 3).clip(min=0.001)
    return oslr.Cohort(times, (t <= c).astype(float), label)


def main():
    rng = np.random.Generator(np.random.Philox(key=[20260815, 0]))
    control = draw(rng, 120, 1.25, 1.4, "control")
    experimental = draw(rng, 80, 1.25, 2.1, "experimental")
    oslr.write_csv("control.csv", control)
    oslr.write_csv("experimental.csv", experimental)
    print(f"control: n={control.n} events={control.n_events}")
    print(f"experimental: n={experimental.n} events={experimental.n_events}")


if __name__ == "__main__":
    main()
