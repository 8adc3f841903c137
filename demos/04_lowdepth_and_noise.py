"""Low-depth amplitude estimation under a per-Grover error channel.

Instead of controlled Grover powers, run U G^l for a schedule of l values
and fit the marked-count oscillation. On noisy hardware the oscillation is
damped; fitting r = e^{-a l} sin^2((2l+1) theta/2) + (1 - e^{-a l}) f
recovers the probability where a plain sine fit is biased low.
"""
from cascadeq import (
    GroverSpec,
    NetworkModel,
    NoiseSpec,
    evaluate,
    fit_noise_model,
    fit_sine,
    max_depth,
    min_shots,
    run_schedule,
)


def main() -> None:
    model = NetworkModel.from_triggers(p_fail=[0.3], p_recover=[0.1], triggers={})
    horizon = 3
    exact = evaluate(model, horizon)[horizon].probability(1)
    spec = GroverSpec.from_config("1")
    schedule = range(9)
    shots = 2000

    print(f"Single-node model, probability of failed state at t={horizon}: {exact:.4f}")
    print()

    print("Noise-free schedule run")
    print("=" * 60)
    clean = run_schedule(model, horizon, spec, schedule, shots, seed=1)
    print("marked counts:", [int(m) for m in clean.marked])
    sine = fit_sine(clean)
    print(f"sine fit: p={sine.probability:.4f} (error {abs(sine.probability - exact):.4f})")
    print()

    rate = 0.977
    noise = NoiseSpec.from_decay_rate(rate)
    print(f"Same run with per-Grover scramble probability {noise.per_grover_error:.3f}"
          f" (decay rate a={rate})")
    print("=" * 60)
    noisy = run_schedule(model, horizon, spec, schedule, shots, noise=noise, seed=1)
    print("marked counts:", [int(m) for m in noisy.marked])
    biased = fit_sine(noisy)
    damped = fit_noise_model(noisy)
    print(f"sine fit:        p={biased.probability:.4f} "
          f"(error {abs(biased.probability - exact):.4f})")
    print(f"damped-model fit: p={damped.probability:.4f} "
          f"(error {abs(damped.probability - exact):.4f}, "
          f"a={damped.a:.3f}, f={damped.f:.3f})")
    print()

    print("Schedule viability bounds for f = 0.5")
    print("=" * 60)
    print(f"shots needed to see a signal after 3 Grover steps at a=1: "
          f"{min_shots(1.0, 3, 0.5)}")
    print(f"deepest useful Grover power at a={rate} with {shots} shots: "
          f"{max_depth(rate, shots, 0.5)}")
    print(f"deepest useful power at a=0.286 with 8000 shots: "
          f"{max_depth(0.286, 8000, 0.5)}")


if __name__ == "__main__":
    main()
