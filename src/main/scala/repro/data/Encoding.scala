package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.DatasetIndex

/** Bridges a ranked DataFrame and the driver-side [[DatasetIndex]] that
  * detection and result analysis both read.
  *
  * Values of the pattern attributes are treated as opaque categoricals;
  * a deterministic dictionary (values sorted by string form, nulls as
  * `∅`) maps them to dense indices.
  */
object Encoding {

  /** Build the bitset index from a ranked DataFrame in two Spark jobs:
    * one aggregation collects every attribute's dictionary, one sorted
    * collect fetches the int-encoded rows in rank order.
    *
    * @throws IllegalArgumentException unless `rankCol` holds exactly
    *         1..|D| (a gap or a tie would make positions and ranks differ)
    */
  def index(df: DataFrame, attrCols: Seq[String], rankCol: String): DatasetIndex = {
    // collect_set drops nulls, so they get their sentinel first.
    val labels = attrCols.map(c => coalesce(col(c).cast("string"), lit("∅")))
    val sets = df.select(labels.map(collect_set): _*).head()
    val dicts = attrCols.indices.map(i => sets.getSeq[String](i).sorted.toIndexedSeq)
    val encoded = attrCols.indices.map { i =>
      element_at(map(dicts(i).zipWithIndex.flatMap { case (v, j) => Seq(lit(v), lit(j)) }: _*), labels(i))
    }
    val width = attrCols.length
    val collected = df
      .select(encoded :+ col(rankCol).cast("int").alias(rankCol): _*)
      .orderBy(col(rankCol))
      .collect()
    val rows = Array.tabulate(collected.length) { i =>
      val r = collected(i)
      require(!r.isNullAt(width) && r.getInt(width) == i + 1,
        s"rank column '$rankCol' must hold exactly 1..${collected.length}; " +
          s"position ${i + 1} has rank ${r.get(width)}")
      Array.tabulate(width)(r.getInt)
    }
    new DatasetIndex(rows, dicts.map(_.size), attrCols.toIndexedSeq, dicts)
  }
}
