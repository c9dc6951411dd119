package repro.shapley

import repro.SparkSpec
import repro.core.Pattern
import repro.data.{BiasDataGen, Encoding}

class ResultAnalysisSpec extends SparkSpec {

  // Use a moderate schema so the suite stays fast.
  private lazy val student = BiasDataGen.studentLike(spark, nAttrs = 12)

  private lazy val meduIdx = student.attrCols.indexOf("Medu")

  // group {Medu = 0} (primary education) — the paper's p1 analogue.
  private lazy val meduExpl =
    ResultAnalysis.explain(student, Pattern.of(student.attrCols.size, meduIdx -> 0), k = 49)

  test("aggregated Shapley is the mean of the group's per-tuple Shapley values") {
    val attrs = student.attrCols
    val ix = Encoding.index(student.df, attrs, student.rankCol)
    val model = RidgeRegression.fit(ix.rows, Array.tabulate(ix.size)(i => i + 1.0), attrs, ix.domainSizes)
    val group = ix.rows.filter(_(meduIdx) == 0)
    val perTuple = group.map(Shapley.linearExact(model, _))
    for ((attr, v) <- meduExpl.aggShapley) {
      val a = attrs.indexOf(attr)
      val mean = perTuple.map(_(a)).sum / group.length
      assert(math.abs(v - mean) < 1e-9, s"$attr: $v vs per-tuple mean $mean")
    }
  }

  test("group distribution equals the value shares among the group's indexed rows") {
    val ix = Encoding.index(student.df, student.attrCols, student.rankCol)
    val top = student.attrCols.indexOf(meduExpl.topAttr)
    val group = ix.rows.filter(_(meduIdx) == 0)
    val expected = ix.domains(top).indices.map { v =>
      ix.domains(top)(v) -> group.count(_(top) == v).toDouble / group.length
    }
    assert(meduExpl.groupDist == expected)
  }

  test("aggregated Shapley covers every attribute") {
    assert(meduExpl.aggShapley.map(_._1).toSet == student.attrCols.toSet)
  }

  test("aggregated Shapley is sorted by magnitude") {
    val mags = meduExpl.aggShapley.map { case (_, v) => math.abs(v) }
    assert(mags.zip(mags.tail).forall { case (a, b) => a >= b })
  }

  test("the ranking attribute G3 has the largest Shapley value (Fig 10a analogue)") {
    assert(meduExpl.topAttr == "G3", s"got ${meduExpl.aggShapley.take(4)}")
  }

  test("correlated grade attributes G1/G2 appear among the top attributes") {
    // Signed group-aggregation partially cancels weakly-weighted attrs
    // (the paper notes the same for e.g. father's education), so allow a
    // little slack beyond the figure's top-6 cut.
    val top8 = meduExpl.aggShapley.take(8).map(_._1).toSet
    assert(top8.contains("G1") && top8.contains("G2"), s"top8=$top8")
  }

  test("group and top-k distributions are probability vectors") {
    for (dist <- Seq(meduExpl.groupDist, meduExpl.topkDist)) {
      assert(math.abs(dist.map(_._2).sum - 1.0) < 1e-9)
      assert(dist.forall(_._2 >= 0.0))
    }
  }

  test("distributions differ between the detected group and the top-k (Fig 10d analogue)") {
    // top-k is dominated by the highest G3 bucket; the under-represented
    // group is not.
    val l1 = meduExpl.groupDist.zip(meduExpl.topkDist)
      .map { case ((_, g), (_, t)) => math.abs(g - t) }.sum
    assert(l1 > 0.4, s"distributions unexpectedly close: L1=$l1")
  }

  test("top-k distribution concentrates on the top grade bucket") {
    val topBucket = meduExpl.topkDist.maxBy(_._2)
    assert(topBucket._1 == "3", s"top-k mode is G3=$topBucket")
    assert(topBucket._2 > 0.8)
  }

  test("rendered pattern names the defining attribute") {
    assert(meduExpl.rendered.contains("Medu"))
  }

  test("explain rejects k = 0") {
    val e = intercept[IllegalArgumentException] {
      ResultAnalysis.explain(student, Pattern.of(student.attrCols.size, meduIdx -> 0), k = 0)
    }
    assert(e.getMessage.contains("k = 0"), e.getMessage)
  }

  test("explain rejects k above |D|") {
    val e = intercept[IllegalArgumentException] {
      ResultAnalysis.explain(student, Pattern.of(student.attrCols.size, meduIdx -> 0), k = 396)
    }
    assert(e.getMessage.contains("k = 396"), e.getMessage)
  }

  test("explain validates the pattern width") {
    intercept[IllegalArgumentException] {
      ResultAnalysis.explain(student, Pattern.of(3, 0 -> 0), k = 10)
    }
  }

  test("explain rejects a pattern no tuple satisfies, naming it") {
    val at = student.attrCols.indexOf(_: String)
    val empty = Pattern.of(student.attrCols.size,
      at("school") -> 1, at("sex") -> 0, at("age") -> 1, at("address") -> 0, at("Medu") -> 0, at("Fedu") -> 0)
    val e = intercept[IllegalArgumentException](ResultAnalysis.explain(student, empty, k = 10))
    assert(e.getMessage.contains("{school=1, sex=0, age=1, address=0, Medu=0, Fedu=0}"), e.getMessage)
  }

  test("german-like: scoring attributes dominate the attribution (Fig 10c analogue)") {
    val german = BiasDataGen.germanLike(spark, nAttrs = 10)
    val p = Pattern.of(10, 0 -> 0) // {status_account = low}
    val expl = ResultAnalysis.explain(german, p, k = 49)
    val top4 = expl.aggShapley.take(4).map(_._1).toSet
    assert(Set("status_account", "duration", "credit_amount", "installment_rate")
      .intersect(top4).size >= 3, s"top4=$top4")
  }
}
