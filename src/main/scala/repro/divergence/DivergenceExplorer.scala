package repro.divergence

import scala.collection.mutable
import repro.core.{Budget, GlobalLowerBound, Pattern, PatternCounter, TopDownSearch}

/** Reimplementation of the comparison method of Pastor, de Alfaro and
  * Baralis [27] ("Identifying biased subgroups in ranking and
  * classification"), used in the paper's Section VI-D case study.
  *
  * Each tuple gets an outcome `o(t) = 1` iff it appears in the top-k of
  * the ranking, else 0. For a subgroup `G` (a pattern), the outcome is
  * the mean over its members — i.e. `s_{R^k(D)}(p) / s_D(p)` — and its
  * divergence is `o(G) − o(D)` with `o(D) = k / |D|`. The method reports
  * *all* subgroups with support at least `minSupport` (no most-general
  * filtering and a single k), ranked by divergence.
  *
  * Enumeration is the level-wise top-down search of
  * [[TopDownSearch.bfs]] with `τ_s = minSupport` (support is
  * anti-monotone) and a bound that flags nothing, so each level is one
  * [[PatternCounter.countBatch]] call.
  */
object DivergenceExplorer {

  /** One reported subgroup. */
  final case class DivGroup(p: Pattern, support: Long, outcome: Double, divergence: Double)

  /** All subgroups with support ≥ `minSupport`, sorted by divergence
    * descending (ties broken deterministically by pattern rendering).
    */
  def run(
      counter: PatternCounter,
      k: Int,
      minSupport: Long,
      budget: Budget = Budget.unlimited,
  ): Seq[DivGroup] = {
    val oD = k.toDouble / counter.datasetSize
    val out = mutable.ArrayBuffer.empty[DivGroup]
    val frontier0 = Pattern.root(counter.width).searchTreeChildren(counter.domainSizes)
    TopDownSearch.bfs(counter, GlobalLowerBound(_ => 0.0), minSupport, k, frontier0, budget) {
      case TopDownSearch.Open(p, sD, cnt) =>
        val oG = cnt.toDouble / sD
        out += DivGroup(p, sD, oG, oG - oD)
      case _ => ()
    }
    out.sortBy(g => (-g.divergence, g.p.toString)).toSeq
  }
}
