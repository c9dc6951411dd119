package repro.core

import repro.{Oracle, SparkSpec}
import repro.data.Encoding

/** The counting engine, fed by the one ingest path, against the DuckDB
  * oracle on the running example.
  */
class CounterSpec extends SparkSpec {
  import RunningExample.p

  private val attrs = Seq("gender", "school", "address", "failures")

  private lazy val exampleDf = {
    val df = RunningExample.df(spark)
    df.withColumnRenamed("paper_rank", "rank")
  }

  private lazy val ix = Encoding.index(exampleDf, attrs, "rank")

  private val ks = Seq(1, 4, 5, 10, 16)

  /** `LocalPatternCounter` over `Encoding.index(exampleDf, …)` gives DuckDB's
    * (size, top-k count) for every pattern in `pats` at every k in `ks`.
    */
  private def assertCountsMatchDuckDB(pats: Seq[Pattern], ks: Seq[Int]): Unit = {
    import spark.implicits._
    val counter = new LocalPatternCounter(ix)
    val counts = for (k <- ks; (q, (d, t)) <- counter.countBatch(pats, k)) yield (ix.render(q), k, d, t)

    def sql(q: Pattern, k: Int): String = {
      val pred = (q.attrs.map(a => s"${attrs(a)} = '${ix.domains(a)(q.vals(a))}'") :+ "TRUE").mkString(" AND ")
      s"""SELECT '${ix.render(q)}' AS pattern, $k AS k,
         |  sum(CASE WHEN $pred THEN 1 ELSE 0 END) AS d,
         |  sum(CASE WHEN $pred AND CAST(rank AS INT) <= $k THEN 1 ELSE 0 END) AS t
         |FROM students""".stripMargin
    }
    Oracle.assertEquivalent(
      counts.toDF("pattern", "k", "d", "t"),
      (for (k <- ks; q <- pats) yield sql(q, k)).mkString("\nUNION ALL\n"),
      "students" -> exampleDf,
    )
  }

  test("pattern counts validated against DuckDB") {
    def v(a: Int, label: String): Int = ix.domains(a).indexOf(label)
    val gp = p(1 -> v(1, "GP"))
    val femaleRural = p(0 -> v(0, "F"), 2 -> v(2, "R"))
    val counts = new LocalPatternCounter(ix).countBatch(Seq(gp), 5)
    assert(counts(gp) == (8L, 1L)) // Example 2.3
    assertCountsMatchDuckDB(Seq(gp, femaleRural), Seq(5))
  }

  test("local counter agrees with DuckDB on every level-1 pattern, all k") {
    assertCountsMatchDuckDB(Pattern.root(4).searchTreeChildren(ix.domainSizes), ks)
  }

  test("local counter agrees with DuckDB on deep and empty patterns") {
    assertCountsMatchDuckDB(
      Seq(
        Pattern.root(4),
        p(0 -> 0, 1 -> 0, 2 -> 0, 3 -> 0),
        p(0 -> 1, 1 -> 1, 2 -> 0, 3 -> 2),
        p(0 -> 0, 3 -> 2),
      ),
      ks,
    )
  }
}
