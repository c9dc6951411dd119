package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.core.{DatasetIndex, LocalPatternCounter}

/** Entry point of a benchmark run: one workload, one seed, one process.
  *
  * Set-up (timed as `setup_s`, once per run): JVM and SparkSession
  * start, data generation and caching, the workload's set-up ingest, and
  * one warm-up session. Then sessions run back to back, one at a time,
  * until `--seconds` have passed. The gate runs last. The final stdout
  * line is the JSON result.
  *
  * With `--trace 1` every other session is traced (spans, counter
  * decorator, Spark listener, per-thread allocation) and JFR samples the
  * whole measurement; the result holds the per-layer metrics.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: Path, refs: Path)

  def parse(args: Array[String]): Args = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(get("workload"), get("seed").toLong, get("seconds").toInt, get("trace") == "1",
      Paths.get(get("out")), Paths.get(get("refs")))
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try { run(parse(argv)); 0 }
      catch {
        case e: Throwable =>
          System.err.println(s"[perfbench] run failed: $e")
          e.printStackTrace()
          1
      }
    System.exit(code)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0 else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it, as
    * (percentile, value); the maximum when there are ten or fewer.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    if (s.size <= 10) (100.0, s.last)
    else (100.0 * (s.size - 10) / s.size, s(s.size - 11))
  }

  def run(a: Args): Unit = {
    SelfTest.run()
    val wl = Workload.named(a.workload)
    Files.createDirectories(a.out)
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", a.out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", a.out.resolve("spark-warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val probe = new Probe(spark.sparkContext)
    if (a.trace) spark.sparkContext.addSparkListener(new SpanListener(probe.sparkWork))
    val gc = new GcWatch
    val ctx = new Ctx(probe)
    val bootS = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0

    // Set-up work on independent datasets runs in parallel: it is timed
    // as a whole, and runs in less wall time.
    val g0 = System.nanoTime()
    ctx.data = inParallel(wl.datasets) { s =>
      val ds = s.make(spark, a.seed)
      ds.df.count()
      s.name -> ds
    }.toMap
    val genS = (System.nanoTime() - g0) / 1e9
    // JFR's first recording pays a start-up cost; keep it in set-up.
    val jfrWarm = if (a.trace) Some(Jfr.start()) else None
    val t0 = System.nanoTime()
    wl.prepare(ctx)
    val gate = new Gate(ctx, wl, cores, a.refs)
    // Warm-up: one session, its datasets in parallel (JIT and Spark's
    // code caches warm up the same way, in less wall time).
    inParallel(wl.datasets) { spec =>
      val r = new SessionRecord(-1, false)
      wl.unit(ctx, r, spec)
      r
    }.foreach(gate.take)
    val warmS = (System.nanoTime() - t0) / 1e9
    val setupS = bootS + genS + warmS

    val jfr = if (a.trace) Some(Jfr.start()) else None
    jfrWarm.foreach(_.close())
    val records = mutable.ArrayBuffer.empty[SessionRecord]
    val deadline = System.nanoTime() + a.seconds * 1000000000L
    while (System.nanoTime() < deadline || (a.trace && records.size < 2)) {
      val rec = runSession(ctx, wl, records.size, traced = a.trace && records.size % 2 == 0)
      gate.take(rec)
      records += rec
    }
    val traceFile = a.out.resolve(s"${wl.name}-seed${a.seed}")
    val samples = jfr.map(Jfr.rollUp(_, Paths.get(traceFile + ".jfr")))

    val v0 = System.nanoTime()
    val ledger = gate.verify()
    val gateS = (System.nanoTime() - v0) / 1e9
    if (gate.fresh.nonEmpty)
      Files.write(a.out.resolve(s"refs-${wl.name}-seed${a.seed}.tsv"), gate.fresh.map(_ + "\n").mkString.getBytes(StandardCharsets.UTF_8))
    if (a.trace) probe.drain()
    spark.stop()

    val plain = records.filterNot(_.traced).toSeq
    val e2e = endToEnd(plain, gc, setupS)
    println(s"workload ${wl.name}  seed ${a.seed}  sessions ${plain.size} untraced" +
      (if (a.trace) s" + ${records.count(_.traced)} traced" else "") +
      f"  boot ${bootS}%.2f s  data ${genS}%.2f s  set-up ingest and warm-up ${warmS}%.2f s  gate ${gateS}%.2f s")
    records.foreach(r => println(f"  session ${r.index}%3d${if (r.traced) " traced" else ""}%7s wall ${r.wallNs / 1e9}%8.3f s  " +
      f"ingest ${r.ingestNs / 1e9}%7.3f s  detect ${r.detectNs / 1e9}%7.3f s  explain ${r.explainNs / 1e9}%7.3f s"))
    val (pct, _) = tail(plain.map(_.wallNs / 1e9))
    println(f"session_s_tail is p$pct%.1f of ${plain.size} sessions")
    printMetrics("end-to-end", e2e ++ Seq(
      "ops_failed_frac" -> (ledger.failed.toDouble / ledger.attempted, "ratio")) ++ phases(plain))
    gate.digests.toSeq.sorted.foreach { case (q, d) => println(s"result $q sha256:$d") }
    ledger.reasons.foreach(r => println(s"FAILED $r"))

    val metrics =
      if (!a.trace) e2e.toSeq
      else {
        val traced = records.filter(_.traced).toSeq
        val layers = Layers.metrics(probe, traced, gc, samples.get,
          median(traced.map(_.wallNs / 1e9)) / median(plain.map(_.wallNs / 1e9)) - 1)
        printMetrics("per-layer", layers)
        Layers.printSelfTable(probe, traced, layers.toMap)
        writeSpans(probe, Paths.get(traceFile + ".spans.tsv"))
        println(s"trace files: $traceFile.{spans.tsv,jfr}")
        layers
      }
    println(json(ledger, metrics))
  }

  /** `xs.map(f)` on a pool of `threads` threads. */
  def inParallel[A, B](xs: Seq[A], threads: Int = 0)(f: A => B): Seq[B] = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(if (threads > 0) threads else xs.size)
    try xs.map(x => pool.submit(new java.util.concurrent.Callable[B] { def call(): B = f(x) })).map(_.get())
    finally pool.shutdown()
  }

  def runSession(ctx: Ctx, wl: Workload, index: Int, traced: Boolean): SessionRecord = {
    val rec = new SessionRecord(index, traced)
    ctx.probe.traced = traced
    ctx.probe.session = index
    // Start every session from a collected heap, so garbage left by the
    // previous one neither pauses this one nor shows in its heap peak.
    System.gc()
    rec.startNs = System.nanoTime()
    wl.datasets.foreach(wl.unit(ctx, rec, _))
    rec.endNs = System.nanoTime()
    ctx.probe.traced = false
    rec.heapEndBytes = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    rec
  }

  /** Metric name -> (value, unit). */
  type Metrics = Seq[(String, (Double, String))]

  /** The end-to-end metrics of `BENCHMARK.json`. */
  def endToEnd(rs: Seq[SessionRecord], gc: GcWatch, setupS: Double): Metrics = {
    val walls = rs.map(_.wallNs / 1e9)
    val peaks = rs.flatMap(r => gc.within(r.startNs, r.endNs).map(_.heapAfter).maxOption)
    val heap = if (peaks.nonEmpty) peaks else rs.map(_.heapEndBytes)
    Seq(
      "setup_s" -> (setupS, "s"),
      "session_s" -> (median(walls), "s"),
      "session_s_tail" -> (tail(walls)._2, "s"),
      "examined" -> (median(rs.map(_.examined.toDouble)), "patterns"),
      "heap_peak_mb" -> (median(heap.map(_ / 1048576.0)), "MB"),
    )
  }

  /** Per-phase times, printed but not in the JSON result: ingest and
    * explain exist on only some workloads, and detection time moves more
    * from run to run than the largest bound allows.
    */
  def phases(rs: Seq[SessionRecord]): Metrics = {
    def phase(name: String, ns: SessionRecord => Long) =
      if (rs.exists(ns(_) > 0)) Some(name -> (median(rs.map(ns(_) / 1e9)), "s")) else None
    phase("ingest_s", _.ingestNs).toSeq ++ phase("detect_s", _.detectNs) ++ phase("explain_s", _.explainNs)
  }

  def printMetrics(title: String, ms: Metrics): Unit = {
    println(s"-- $title")
    ms.foreach { case (n, (v, u)) => println(f"  $n%-28s $v%14.6f $u") }
  }

  def writeSpans(probe: Probe, file: Path): Unit = {
    val sb = new StringBuilder("id\tparent\tsession\tlayer\tname\tstart_ns\tend_ns\tunits\talloc_bytes\tspark_jobs\tspark_tasks\ttask_ms\n")
    probe.spans.foreach { s =>
      val w = probe.work(s.id)
      sb ++= s"${s.id}\t${s.parent}\t${s.session}\t${s.layer}\t${s.name}\t${s.startNs}\t${s.endNs}\t${s.units}\t${s.allocBytes}\t${w.jobs}\t${w.tasks}\t${w.taskMs}\n"
    }
    Files.write(file, sb.toString.getBytes(StandardCharsets.UTF_8))
  }

  def json(ledger: Ledger, ms: Metrics): String = {
    val body = ms.map { case (n, (v, u)) =>
      require(!v.isNaN && !v.isInfinite, s"metric $n is $v")
      s""""$n": {"value": $v, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": ${ledger.failed == 0}, "attempted": ${ledger.attempted}, "failed": ${ledger.failed}, "metrics": {$body}}"""
  }
}

/** Collects every session's operations and checks them after the
  * measurement. Right after each session (its clock stopped) an index is
  * reduced to a digest of its rows and a result to its rendered form, so
  * no session keeps the previous one's data alive.
  *
  * A query's reference is ITERTD on the same index and bound. Reference
  * digests computed once are stored under `refsDir`, keyed by a digest of
  * the generated rows and the query, so a run on a known seed does not
  * recompute them; a run on a new seed computes them and writes them to
  * the run's output directory.
  */
final class Gate(ctx: Ctx, wl: Workload, threads: Int, refsDir: Path) {
  private val ops = mutable.ArrayBuffer.empty[Op]
  /** Per dataset, the first index built (or the set-up index): the
    * index the reference results are computed on.
    */
  private val refIndex = mutable.LinkedHashMap.empty[String, DatasetIndex] ++= ctx.setupIndex
  val digests = mutable.LinkedHashMap.empty[String, String]

  private val refsFile = refsDir.resolve(s"${wl.name}.tsv")
  private val stored: Map[String, String] =
    if (!Files.exists(refsFile)) Map.empty
    else Files.readAllLines(refsFile).asScala.map(_.split("\t")).collect { case Array(k, q, d) => s"$k\t$q" -> d }.toMap
  val fresh = mutable.ArrayBuffer.empty[String]

  def take(rec: SessionRecord): Unit = rec.ops.foreach {
    case IngestOp(what, ds, ix) =>
      refIndex.getOrElseUpdate(ds, ix)
      rec.ingestRows += ix.size
      rec.indexBytes += ix.domainSizes.sum.toLong * ((ix.size + 63) / 64) * 8 + ix.size.toLong * (16 + 4 * ix.width)
      ops += IngestDigest(what, ds, ix.size, Check.rowsDigest(ix))
    case QueryOp(what, q, r, render) =>
      val res = Check.rendered(r.resByK, render)
      rec.resTotal += res.valuesIterator.map(_.size.toLong).sum
      rec.resDistinct += res.valuesIterator.flatten.toSet.size
      ops += QueryAnswer(what, q, res, r.timedOut)
    case other => ops += other
  }

  /** Rows of the generated dataset as labels, in rank order, read
    * straight from the ranked DataFrame: the oracle for every ingest.
    */
  private def oracleDigest(ds: String): Long = {
    val rd = ctx.data(ds)
    val rows = rd.df.select(rd.attrCols.map(c => col(c).cast("string")) :+ col(rd.rankCol).cast("long"): _*)
      .collect().sortBy(_.getLong(rd.attrCols.size))
    Check.rowsDigest(rows.length, rd.attrCols.size, (i, a) => Option(rows(i).getString(a)).getOrElse("∅"))
  }

  /** Share of each value of `attr` among the top-k rows. */
  private def topKShares(ix: DatasetIndex, attr: String, k: Int): Map[String, Double] = {
    val a = ix.attrNames.indexOf(attr)
    (0 until k).groupBy(i => ix.domains(a)(ix.rows(i)(a))).map { case (v, is) => v -> is.size.toDouble / k }
  }

  def verify(): Ledger = {
    val ledger = new Ledger
    val oracle = mutable.HashMap.empty[String, Long]
    def data(ds: String) = oracle.getOrElseUpdate(ds, oracleDigest(ds))
    val live = mutable.HashMap.empty[Query, Check.Rendered]
    def reference(q: Query): Check.Rendered = live.getOrElseUpdate(q, {
      val ix = refIndex(q.dataset)
      val ref = Check.rendered(Check.reference(new LocalPatternCounter(ix), q, threads), ix.render)
      fresh += s"${data(q.dataset)}\t$q\t${Check.digest(Check.canonical(ref))}"
      ref
    })
    val specs = wl.datasets.map(s => s.name -> s).toMap
    for ((ds, ix) <- ctx.setupIndex)
      ledger.record(s"set-up ingest $ds",
        if (Check.rowsDigest(ix) == data(ds)) None else Some("rows differ from the data"))
    ops.foreach {
      case IngestDigest(what, ds, size, rows) =>
        ledger.record(what,
          if (size != specs(ds).rows) Some(s"$size rows, expected ${specs(ds).rows}")
          else if (rows != data(ds)) Some("rows differ from the data")
          else None)
      case QueryAnswer(what, q, res, timedOut) =>
        val got = Check.digest(Check.canonical(res))
        stored.get(s"${data(q.dataset)}\t$q") match {
          case Some(d) if d == got && !timedOut =>
            digests(what) = d
            ledger.record(what, None)
          case _ =>
            val ref = reference(q)
            digests(what) = Check.digest(Check.canonical(ref))
            ledger.record(what, Check.mismatch(res, timedOut, ref))
        }
      case ExplainOp(what, ds, k, ex) =>
        val expected = topKShares(refIndex(ds), ex.topAttr, k)
        ledger.record(what,
          if (!specs(ds).scoring(ex.topAttr)) Some(s"top attribute ${ex.topAttr} is not a scoring attribute")
          else if (ex.topkDist.exists { case (v, p) => math.abs(p - expected.getOrElse(v, 0.0)) > 1e-9 })
            Some(s"top-$k distribution of ${ex.topAttr} is ${ex.topkDist}, expected $expected")
          else None)
      case FailedOp(what, error) => ledger.record(what, Some(error))
      case other => ledger.record(other.what, Some("unchecked operation"))
    }
    ledger
  }
}
