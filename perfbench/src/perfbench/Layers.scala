package perfbench

import Main.{median, Metrics}

/** Per-layer metrics of a traced run: the median over traced sessions of
  * each session's total, from spans, listener counts and GC events; the
  * JFR shares are over the whole measurement.
  */
object Layers {

  private final case class View(probe: Probe, rec: SessionRecord, gc: GcWatch) {
    val spans: Seq[Span] = probe.spans.filter(_.session == rec.index).toSeq
    def of(layer: String): Seq[Span] = spans.filter(_.layer == layer)
    def busy(layer: String): Double = of(layer).map(_.ns).sum / 1e9
    def work(layer: String): Seq[SparkWork] = of(layer).map(s => probe.work(s.id))
    def tally(key: String): Double = probe.tallies.getOrElse((rec.index, key), 0.0)
    def countIn(algo: String): Seq[Span] = of("count").filter(_.name == algo)
    def selfS(algo: String): Double =
      (of("detect").filter(_.name == algo).map(_.ns).sum - countIn(algo).map(_.ns).sum -
        tally("row_fetch_ns." + algo)) / 1e9
  }

  def sparkMetrics(prefix: String, ws: Seq[SparkWork]): Seq[(String, Double, String)] = Seq(
    (s"$prefix.spark_jobs", ws.map(_.jobs).sum.toDouble, "count"),
    (s"$prefix.spark_tasks", ws.map(_.tasks).sum.toDouble, "count"),
    (s"$prefix.task_s", ws.map(_.taskMs).sum / 1e3, "s"),
  )

  private def perSession(v: View): Seq[(String, Double, String)] = {
    val counts = v.of("count")
    val countNs = counts.map(_.ns).sum.toDouble
    val patterns = counts.map(_.units).sum.toDouble
    val detectAlloc = v.of("detect").map(_.allocBytes).sum - counts.map(_.allocBytes).sum
    val gcs = v.gc.within(v.rec.startNs, v.rec.endNs)
    Seq(
      ("ingest.busy_s", v.busy("ingest"), "s")) ++
      sparkMetrics("ingest", v.work("ingest")) ++ Seq(
      ("ingest.rows", v.rec.ingestRows.toDouble, "rows"),
      ("ingest.index_bytes", v.rec.indexBytes.toDouble, "bytes"),
      ("count.busy_s", countNs / 1e9, "s"),
      ("count.calls", counts.size.toDouble, "count"),
      ("count.patterns", patterns, "patterns"),
      ("count.ns_per_pattern", if (patterns > 0) countNs / patterns else 0.0, "ns"),
      ("count.alloc_mb", counts.map(_.allocBytes).sum / 1048576.0, "MB"),
      ("count.row_fetches", v.tally("row_fetches"), "count"),
      ("count.row_fetch_s", Query.Algos.map(a => v.tally("row_fetch_ns." + a)).sum / 1e9, "s")) ++
      Query.Algos.flatMap(a => Seq(
        (s"search.$a.self_s", v.selfS(a), "s"),
        (s"search.$a.examined", v.tally("examined." + a), "patterns"))) ++ Seq(
      ("search.res_total", v.rec.resTotal.toDouble, "patterns"),
      ("search.yield", if (v.rec.examined > 0) v.rec.resDistinct.toDouble / v.rec.examined else 0.0, "ratio"),
      ("search.alloc_mb", detectAlloc / 1048576.0, "MB"),
      ("analysis.busy_s", v.busy("analysis"), "s")) ++
      sparkMetrics("analysis", v.work("analysis")).filterNot(_._1 == "analysis.spark_tasks") ++ Seq(
      ("gc.pause_s", gcs.map(_.pauseNs).sum / 1e9, "s"),
      ("gc.count", gcs.size.toDouble, "count"),
    )
  }

  def metrics(probe: Probe, traced: Seq[SessionRecord], gc: GcWatch,
              samples: (Long, Map[String, Long]), overhead: Double): Metrics = {
    val rows = traced.map(r => perSession(View(probe, r, gc)))
    val names = rows.head.map(r => (r._1, r._3))
    val sessionMedians = names.zipWithIndex.map { case ((n, u), i) => n -> (median(rows.map(_(i)._2)), u) }
    val (total, perLayer) = samples
    val shares = Jfr.Layers.map(l =>
      s"jfr.${l}_share" -> (if (total > 0) perLayer.getOrElse(l, 0L).toDouble / total else 0.0, "ratio"))
    sessionMedians ++ Seq("jfr.samples" -> (total.toDouble, "count")) ++ shares ++
      Seq("trace.overhead" -> (overhead, "ratio"))
  }

  /** Self time and share of session wall time per layer, medians over
    * the traced sessions.
    */
  def printSelfTable(probe: Probe, traced: Seq[SessionRecord], m: Map[String, (Double, String)]): Unit = {
    val wall = median(traced.map(_.wallNs / 1e9))
    val rows = Seq(
      "ingest (repro.data)" -> m("ingest.busy_s")._1,
      "count (repro.core)" -> (m("count.busy_s")._1 + m("count.row_fetch_s")._1)) ++
      Query.Algos.map(a => s"search $a (repro.core)" -> m(s"search.$a.self_s")._1) ++ Seq(
      "analysis (repro.shapley)" -> m("analysis.busy_s")._1)
    val other = wall - rows.map(_._2).sum
    println(f"-- self time per layer (traced session median $wall%.3f s, tracing overhead ${100 * m("trace.overhead")._1}%+.1f%%)")
    (rows :+ ("other (glue, Spark outside spans)" -> other)).foreach { case (n, s) =>
      println(f"  $n%-34s $s%9.3f s ${if (wall > 0) 100 * s / wall else 0.0}%6.1f%%")
    }
  }
}
