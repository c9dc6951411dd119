package repro.core

/** GLOBALBOUNDS (Algorithm 2) — incremental detection for Problem 3.1.
  *
  * When `L_k` does not decrease over the range, this is the incremental
  * engine shared with PROPBOUNDS ([[PropBounds.incremental]]): only
  * patterns the new tuple `R(D)[k]` satisfies change count (Prop. 4.3),
  * and a tracked pattern that keeps its count turns biased at the next
  * step of `L_k` above that count, where its bucket is reached. Unlike
  * Algorithm 2, line 4, a step of `L_k` does not trigger a fresh search.
  * A decreasing `L_k` would let biased patterns recover without gaining a
  * tuple, so such bounds run the ITERTD baseline.
  */
object GlobalBounds {

  def run(
      counter: PatternCounter,
      bound: GlobalLowerBound,
      tauS: Long,
      kMin: Int,
      kMax: Int,
      budget: Budget = Budget.unlimited,
  ): DetectionResult =
    if (bound.nondecreasing(kMin, kMax)) PropBounds.incremental(counter, bound, tauS, kMin, kMax, budget)
    else IterTD.run(counter, bound, tauS, kMin, kMax, budget)
}
