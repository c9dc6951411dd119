package perfbench

import java.security.MessageDigest

import scala.collection.immutable.SortedMap

import repro.core._

/** The benchmark's correctness gate. It runs after the measured sessions,
  * outside every timed interval.
  */
object Check {

  /** `Res[k]` with every pattern rendered as attribute=value labels, so
    * results from indexes with different value dictionaries compare.
    */
  type Rendered = SortedMap[Int, Set[String]]

  def rendered(resByK: SortedMap[Int, Set[Pattern]], render: Pattern => String): Rendered =
    resByK.map { case (k, ps) => k -> ps.map(render) }

  /** Canonical text of a result: k ascending, patterns sorted per k. */
  def canonical(res: Rendered): String =
    res.iterator.map { case (k, ps) => ps.toSeq.sorted.mkString(s"$k:", ";", "") }.mkString("|")

  def digest(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8")).take(8).map("%02x".format(_)).mkString

  /** Why an answer is not the reference result, or None if it is. */
  def mismatch(got: Rendered, timedOut: Boolean, reference: Rendered): Option[String] =
    if (timedOut) Some("timed out")
    else if (got == reference) None
    else {
      val k = (got.keySet ++ reference.keySet).toSeq.sorted.find(k => got.get(k) != reference.get(k)).get
      val g = got.getOrElse(k, Set.empty)
      val r = reference.getOrElse(k, Set.empty)
      Some(s"Res[$k] differs: missing ${(r -- g).take(3).mkString(" ")}, extra ${(g -- r).take(3).mkString(" ")}")
    }

  /** Order-sensitive hash of an index's rows as value labels, rank order. */
  def rowsDigest(ix: DatasetIndex): Long = {
    val labels = Array.tabulate(ix.width)(a => ix.domains(a).toArray)
    rowsDigest(ix.size, ix.width, (i, a) => labels(a)(ix.rows(i)(a)))
  }

  def rowsDigest(n: Int, width: Int, label: (Int, Int) => String): Long = {
    var h = 1125899906842597L
    var i = 0
    while (i < n) {
      var a = 0
      while (a < width) {
        h = 31 * h + label(i, a).hashCode
        a += 1
      }
      h = 1000003L * h + i
      i += 1
    }
    h
  }

  /** ITERTD on the same index and bound: the reference for every query.
    * Each k is an independent search, so the k range is split over a
    * small thread pool.
    */
  def reference(counter: PatternCounter, q: Query, threads: Int): SortedMap[Int, Set[Pattern]] = {
    val bound = q.spec(counter.datasetSize)
    SortedMap(Main.inParallel(q.kMin to q.kMax, threads) { k =>
      val r = IterTD.run(counter, bound, q.tauS, k, k)
      require(!r.timedOut)
      k -> r.resByK(k)
    }: _*)
  }
}

/** Operations attempted and failed in a run's sessions. */
final class Ledger {
  var attempted = 0L
  var failed = 0L
  val reasons = scala.collection.mutable.ArrayBuffer.empty[String]

  def record(what: String, problem: Option[String]): Unit = {
    attempted += 1
    problem.foreach { p =>
      failed += 1
      if (reasons.size < 20) reasons += s"$what: $p"
    }
  }
}

/** Self-test of the gate: a result with one pattern dropped, or one
  * extra pattern, must be recorded as a failed operation. Runs on a small
  * hand-made index, without Spark; every benchmark run starts with it.
  */
object SelfTest {

  def run(): Unit = {
    val rnd = new scala.util.Random(20230403L)
    val domains = IndexedSeq(2, 3, 2, 4)
    val rows = Array.fill(400)(domains.map(d => rnd.nextInt(d)).toArray)
    val ix = new DatasetIndex(rows, domains, domains.indices.map(i => s"a$i"),
      domains.map(d => (0 until d).map(_.toString)))
    val counter = new LocalPatternCounter(ix)
    val q = Query.gb("selftest", 10, 60).copy(tauS = 20)
    val ref = Check.rendered(Check.reference(counter, q, threads = 2), ix.render)
    val good = ref

    val k = ref.find(_._2.nonEmpty).map(_._1).getOrElse(sys.error("self-test: no biased pattern"))
    val outsider = ix.render(Pattern.of(domains.size, 0 -> 1, 1 -> 2, 2 -> 0, 3 -> 3))
    require(!good(k).contains(outsider), "self-test: pick another outsider pattern")
    val dropped = good.updated(k, good(k).drop(1))
    val extra = good.updated(k, good(k) + outsider)

    val ledger = new Ledger
    for ((name, r, timedOut) <- Seq(("good", good, false), ("dropped", dropped, false),
                                    ("extra", extra, false), ("timed-out", good, true)))
      ledger.record(name, Check.mismatch(r, timedOut, ref))
    require(ledger.attempted == 4 && ledger.failed == 3 && ledger.reasons.forall(!_.startsWith("good")),
      s"self-test: gate misjudged results: ${ledger.reasons.mkString("; ")}")
    require(Check.digest(Check.canonical(dropped)) != Check.digest(Check.canonical(good)),
      "self-test: digest does not see a dropped pattern")
  }

  def main(args: Array[String]): Unit = {
    run()
    println("perfbench self-test passed")
  }
}
