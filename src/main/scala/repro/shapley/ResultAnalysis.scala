package repro.shapley

import repro.core.Pattern
import repro.data.{BiasDataGen, Encoding}

/** End-to-end result analysis (Section V): given a group detected as
  * having biased representation in the top-k,
  *
  *  1. train the surrogate regression model `M_R` on `(t, rank(t))`;
  *  2. aggregate the per-tuple Shapley values of the group's tuples per
  *     attribute, `s_i = Σ_t s_i^t / s_D(p)`. `M_R` is linear in the
  *     one-hot features, so this is the exact Shapley value at the
  *     group's mean one-hot vector ([[Shapley.linear]]);
  *  3. compare the value distribution of the highest-Shapley attribute
  *     between the group and the top-k tuples (Figures 10d–f).
  *
  * All three steps read the one [[repro.core.DatasetIndex]] that
  * detection reads too; steps 2 and 3 need only the group and top-k
  * count of every one-hot feature, which one pass over its rows yields.
  */
object ResultAnalysis {

  /** Analysis output for one detected group. */
  final case class Explanation(
      pattern: Pattern,
      rendered: String,
      /** (attribute, aggregated Shapley), sorted by |value| descending. */
      aggShapley: Seq[(String, Double)],
      /** Attribute with the largest |aggregated Shapley|. */
      topAttr: String,
      /** (value label, proportion) of `topAttr` within the group. */
      groupDist: Seq[(String, Double)],
      /** (value label, proportion) of `topAttr` within the top-k. */
      topkDist: Seq[(String, Double)],
  )

  /** Explain the biased representation of `pattern` in the top-k of
    * `ranked`. Shapley values use the exact closed form for the linear
    * surrogate (the Monte-Carlo engine is validated against it in
    * tests).
    *
    * @throws IllegalArgumentException unless `1 ≤ k ≤ |D|` and some
    *         tuple satisfies `pattern`
    */
  def explain(ranked: BiasDataGen.RankedDataset, pattern: Pattern, k: Int): Explanation = {
    val attrs = ranked.attrCols
    require(pattern.width == attrs.length, "pattern width must match the schema")
    val ix = Encoding.index(ranked.df, attrs, ranked.rankCol)
    require(k >= 1 && k <= ix.size, s"k = $k must lie in [1, |D| = ${ix.size}]")
    // The label of the rank-(i+1) tuple is its rank; the index holds exactly 1..|D|.
    val model = RidgeRegression.fit(ix.rows, Array.tabulate(ix.size)(i => i + 1.0), attrs, ix.domainSizes)
    val offsets = model.offsets

    // Group and top-k count of every one-hot feature, in one pass.
    val groupCounts = new Array[Long](offsets.last)
    val topkCounts = new Array[Long](offsets.last)
    for (i <- ix.rows.indices) {
      val row = ix.rows(i)
      val inGroup = pattern.matches(row)
      for (a <- row.indices) {
        val f = offsets(a) + row(a)
        if (inGroup) groupCounts(f) += 1
        if (i < k) topkCounts(f) += 1
      }
    }

    val rendered = ix.render(pattern)
    // Every tuple has one value per attribute, so any block sums to s_D(p).
    val sD = groupCounts.slice(0, offsets(1)).sum
    require(sD > 0, s"pattern $rendered matches no tuple")

    val phi = Shapley.linear(model, groupCounts.map(_.toDouble / sD))
    val byMagnitude = attrs.indices.sortBy(a => -math.abs(phi(a)))
    val top = byMagnitude.head

    /** (value label, share) of the top attribute's values in `counts`. */
    def shares(counts: Array[Long]): Seq[(String, Double)] = {
      val block = counts.slice(offsets(top), offsets(top + 1))
      val total = block.sum.toDouble // s_D(p) or k, both positive
      block.indices.map(v => ix.domains(top)(v) -> block(v) / total)
    }

    Explanation(
      pattern = pattern,
      rendered = rendered,
      aggShapley = byMagnitude.map(a => attrs(a) -> phi(a)),
      topAttr = attrs(top),
      groupDist = shares(groupCounts),
      topkDist = shares(topkCounts),
    )
  }
}
