"""Learn-then-verify pipeline for a cyber-physical system (Section VI-D).

The SWaT experiment end to end, on the synthetic surrogate described in
the SWaT row (§VI-D) of ``docs/paper-map.md``:

1. simulate execution logs of the (hidden) 70-state water-treatment chain;
2. learn a DTMC by frequentist counting and wrap it in its Okamoto-margin
   IMC;
3. build a *time-dependent* importance-sampling proposal for the bounded
   overflow property (level > 800 within 30 steps) by unrolling the chain
   against the step counter;
4. estimate by IS w.r.t. the learnt chain, and by IMCIS over the IMC;
5. compare with the exact values — available here because the surrogate's
   ground truth is known.

Run with::

    python examples/swat_pipeline.py
"""

import numpy as np

from repro.imcis import IMCISConfig, RandomSearchConfig, imcis_from_sample
from repro.importance import estimate_from_sample, run_importance_sampling
from repro.models import swat

SEED = 11
N_SAMPLES = 10_000


def main() -> None:
    print("learning a 70-state model from ~5M log transitions ...")
    pipeline = swat.learn_pipeline(rng=SEED)
    imc = pipeline.learned_imc
    print(f"  learnt IMC: {imc.n_states} states, widest margin {imc.max_width():.3f}")
    print(f"  exact gamma (hidden truth)   = {pipeline.gamma_true:.5g}")
    print(f"  exact gamma(A_hat) (learnt)  = {pipeline.gamma_center:.5g}")

    rng = np.random.default_rng(SEED + 1)
    print(f"\nsampling {N_SAMPLES} traces under the time-dependent proposal ...")
    sample = run_importance_sampling(pipeline.proposal, swat.overflow_formula(), N_SAMPLES, rng)
    print(f"  {sample.n_satisfied} satisfied the overflow property "
          f"(mean length {sample.mean_length:.1f})")

    is_result = estimate_from_sample(imc.center, sample, confidence=0.99)
    print(f"\nIS 99%-CI    = {is_result.interval}")
    print(f"  covers gamma(A_hat): {is_result.interval.contains(pipeline.gamma_center)}")
    print(f"  covers gamma:        {is_result.interval.contains(pipeline.gamma_true)}")

    imcis = imcis_from_sample(
        imc,
        sample,
        rng,
        IMCISConfig(confidence=0.99, search=RandomSearchConfig(r_undefeated=500)),
    )
    print(f"\nIMCIS 99%-CI = {imcis.interval}")
    print(f"  covers gamma(A_hat): {imcis.interval.contains(pipeline.gamma_center)}")
    print(f"  covers gamma:        {imcis.interval.contains(pipeline.gamma_true)}")
    print(
        f"  optimised over {len(imcis.search.rows_min)} states "
        f"in {imcis.search.rounds_total} rounds"
    )
    print(
        "\nThe paper's recommendation: for CPS-critical events, prefer the "
        "wider IMCIS interval — it prices in what the logs could not pin down."
    )


if __name__ == "__main__":
    main()
