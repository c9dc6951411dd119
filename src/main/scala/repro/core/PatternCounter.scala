package repro.core

/** Counting engine used by the search algorithms.
  *
  * The searches see counting only through this trait: each BFS level
  * asks for the dataset size and the top-k size of a batch of candidate
  * patterns. The one engine is [[LocalPatternCounter]] over the
  * driver-side bitset index; its counts are tested against DuckDB.
  * Wrappers (e.g. a timing decorator) implement the trait too.
  */
trait PatternCounter {

  /** Number of attributes in the schema. */
  def width: Int

  /** Cardinality of each attribute's active domain. */
  def domainSizes: IndexedSeq[Int]

  /** Total number of tuples |D|. */
  def datasetSize: Long

  /** For each pattern, `(s_D(p), s_{R^k(D)}(p))`. */
  def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)]

  /** Encoded attribute values of the tuple ranked `rank` (1-based) —
    * `R(D)[rank]` in the paper. The incremental algorithms use it to
    * decide which tracked patterns the newly admitted tuple satisfies.
    */
  def rankedRow(rank: Int): Array[Int]
}

/** Bitset-backed counter over a [[DatasetIndex]]. */
final class LocalPatternCounter(val index: DatasetIndex) extends PatternCounter {
  override def width: Int = index.width
  override def domainSizes: IndexedSeq[Int] = index.domainSizes
  override def datasetSize: Long = index.size.toLong

  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] =
    patterns.map { p =>
      val (d, t) = index.sizes(p, k)
      p -> (d.toLong, t.toLong)
    }.toMap

  override def rankedRow(rank: Int): Array[Int] = index.rows(rank - 1)
}
