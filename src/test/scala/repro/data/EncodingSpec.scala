package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.RunningExample

class EncodingSpec extends SparkSpec {

  private val attrs = Seq("gender", "school", "address", "failures")

  private lazy val rankedDf =
    RunningExample.df(spark).withColumnRenamed("paper_rank", "rank")

  private lazy val ix = Encoding.index(rankedDf, attrs, "rank")

  test("dictionaries are sorted distinct string values") {
    val dicts = ix.domains
    assert(dicts(0) == IndexedSeq("F", "M"))
    assert(dicts(1) == IndexedSeq("GP", "MS"))
    assert(dicts(2) == IndexedSeq("R", "U"))
    assert(dicts(3) == IndexedSeq("0", "1", "2"))
  }

  test("encode produces integer columns with the declared domain sizes") {
    val domainSizes = ix.domainSizes
    assert(domainSizes == IndexedSeq(2, 2, 2, 3))
    for ((c, i) <- attrs.zipWithIndex) {
      val vals = ix.rows.map(_(i)).toSet
      assert(vals == (0 until domainSizes(i)).toSet, s"column $c")
    }
  }

  test("index built from the DataFrame equals the hand-built fixture") {
    assert(ix.size == RunningExample.index.size)
    assert(ix.domainSizes == RunningExample.index.domainSizes)
    for (i <- 0 until ix.size)
      assert(ix.rows(i).toSeq == RunningExample.index.rows(i).toSeq, s"rank ${i + 1}")
  }

  test("encoding preserves the rank column") {
    // Each tuple's labels sit at position rank - 1, so those ranks are 1..16.
    val ranks = rankedDf.select((attrs :+ "rank").map(c => col(c).cast("string")): _*).collect()
      .map(r => (r.getString(4).toInt, attrs.indices.map(r.getString)))
      .collect { case (rank, labels) if labels == attrs.indices.map(a => ix.domains(a)(ix.rows(rank - 1)(a))) => rank }
      .sorted
    assert(ranks.toSeq == (1 to 16))
  }

  test("null attribute values are encoded via the ∅ sentinel") {
    import spark.implicits._
    val df = Seq((1, Some("a"), 1), (2, None, 2), (3, Some("b"), 3))
      .toDF("id", "x", "rank")
    val nix = Encoding.index(df, Seq("x"), "rank")
    val (domainSizes, dicts) = (nix.domainSizes, nix.domains)
    assert(domainSizes == IndexedSeq(3))
    assert(dicts(0).contains("∅"))
    assert(nix.rows.map(_(0)).toSet == Set(0, 1, 2))
  }

  test("numeric attribute columns are treated as categorical via string form") {
    val fix = Encoding.index(rankedDf, Seq("failures"), "rank")
    val (domainSizes, dicts) = (fix.domainSizes, fix.domains)
    assert(domainSizes == IndexedSeq(3))
    assert(dicts(0) == IndexedSeq("0", "1", "2"))
  }

  test("round trip: decoding an encoded value yields the original label") {
    val (first, dicts) = (ix.rows(0), ix.domains)
    // rank 1 is student 12: F, GP, U, 0
    assert(dicts(0)(first(0)) == "F")
    assert(dicts(1)(first(1)) == "GP")
    assert(dicts(2)(first(2)) == "U")
    assert(dicts(3)(first(3)) == "0")
  }

  test("a tied rank is rejected, naming the rank column") {
    import spark.implicits._
    val df = Seq(("a", 1), ("b", 2), ("c", 2), ("d", 4)).toDF("x", "pos")
    val e = intercept[IllegalArgumentException](Encoding.index(df, Seq("x"), "pos"))
    assert(e.getMessage.contains("'pos'"), e.getMessage)
  }

  test("a gap in the ranks is rejected, naming the rank column") {
    import spark.implicits._
    val df = Seq(("a", 1), ("b", 2), ("c", 4)).toDF("x", "pos")
    val e = intercept[IllegalArgumentException](Encoding.index(df, Seq("x"), "pos"))
    assert(e.getMessage.contains("'pos'"), e.getMessage)
  }
}
