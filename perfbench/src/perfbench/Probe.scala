package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.ConcurrentHashMap
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import repro.core.{Pattern, PatternCounter}

/** One call into a layer, timed from the benchmark's side.
  *
  * @param layer      "ingest", "detect", "count" or "analysis"
  * @param name       algorithm or dataset the call served
  * @param units      work items of the call (patterns for a count)
  * @param allocBytes bytes the calling thread allocated inside the call
  */
final case class Span(
    id: Long,
    parent: Long,
    session: Int,
    layer: String,
    name: String,
    startNs: Long,
    endNs: Long,
    units: Long,
    allocBytes: Long,
) {
  def ns: Long = endNs - startNs
}

/** Spark work attributed to one span by [[SpanListener]]. */
final class SparkWork {
  var jobs = 0L
  var tasks = 0L
  var taskMs = 0L
}

/** Records spans around the calls into each layer of the program.
  *
  * Used from the single session thread. When `traced` is off a span is a
  * plain call, so untraced sessions pay nothing for it. While a span is
  * open its id is set as a `SparkContext` local property, which Spark
  * copies into every job the thread submits; [[SpanListener]] reads it
  * back, so work is attributed to the right span however late the
  * asynchronous listener bus delivers it.
  */
final class Probe(sc: SparkContext) {
  import Probe._

  var traced = false
  var session = 0
  val spans = mutable.ArrayBuffer.empty[Span]
  val sparkWork = new ConcurrentHashMap[Long, SparkWork]()
  /** Per-session counters that are not spans (row fetches). */
  val tallies = mutable.HashMap.empty[(Int, String), Double]

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private var nextId = 1L
  private var open: List[Long] = Nil

  def span[A](layer: String, name: String, units: Long = 0L)(body: => A): A =
    if (!traced) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(0L)
      open = id :: open
      sc.setLocalProperty(SpanProperty, id.toString)
      val a0 = threads.getCurrentThreadAllocatedBytes
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        val a1 = threads.getCurrentThreadAllocatedBytes
        open = open.tail
        sc.setLocalProperty(SpanProperty, open.headOption.map(_.toString).orNull)
        spans += Span(id, parent, session, layer, name, t0, t1, units, a1 - a0)
      }
    }

  def tally(key: String, v: Double): Unit =
    tallies((session, key)) = tallies.getOrElse((session, key), 0.0) + v

  /** Wait until the listener has seen every event posted so far. */
  def drain(): Unit = org.apache.spark.PerfbenchBus.drain(sc)

  def work(spanId: Long): SparkWork = Option(sparkWork.get(spanId)).getOrElse(new SparkWork)
}

object Probe {
  val SpanProperty = "perfbench.span"
}

/** Attributes Spark jobs, tasks and executor run time to the span that
  * was open in the submitting thread (span 0 = none). Tasks find their
  * span through their stage.
  */
final class SpanListener(work: ConcurrentHashMap[Long, SparkWork]) extends SparkListener {
  private val stageSpan = new ConcurrentHashMap[Int, java.lang.Long]()

  private def spanOf(props: java.util.Properties): Long =
    Option(props).flatMap(p => Option(p.getProperty(Probe.SpanProperty))).map(_.toLong).getOrElse(0L)

  private def of(span: Long): SparkWork = work.computeIfAbsent(span, _ => new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit = of(spanOf(e.properties)).jobs += 1

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    stageSpan.put(e.stageInfo.stageId, spanOf(e.properties))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val w = of(Option(stageSpan.get(e.stageId)).map(_.longValue).getOrElse(0L))
    w.tasks += 1
    if (e.taskMetrics != null) w.taskMs += e.taskMetrics.executorRunTime
  }
}

/** [[PatternCounter]] decorator: every `countBatch` becomes a "count"
  * span, and every `rankedRow` fetch is counted and timed. Results pass
  * through unchanged.
  */
final class TimedCounter(inner: PatternCounter, probe: Probe, algo: String) extends PatternCounter {
  override def width: Int = inner.width
  override def domainSizes: IndexedSeq[Int] = inner.domainSizes
  override def datasetSize: Long = inner.datasetSize

  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] =
    probe.span("count", algo, patterns.size.toLong)(inner.countBatch(patterns, k))

  override def rankedRow(rank: Int): Array[Int] = {
    val t0 = System.nanoTime()
    val row = inner.rankedRow(rank)
    probe.tally("row_fetch_ns." + algo, (System.nanoTime() - t0).toDouble)
    probe.tally("row_fetches", 1.0)
    row
  }
}

/** One garbage collection, as reported by a GC notification. */
final case class GcEvent(endNs: Long, pauseNs: Long, heapAfter: Long)

/** Collects GC notifications, except for the collections the benchmark
  * itself requests between sessions. Their times are JVM uptime; they are
  * converted to `System.nanoTime` so they can be matched to sessions.
  */
final class GcWatch {
  val events = new java.util.concurrent.ConcurrentLinkedQueue[GcEvent]()
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val runtime = ManagementFactory.getRuntimeMXBean
  private val nano0 = System.nanoTime()
  private val uptime0 = runtime.getUptime

  private val listener = new NotificationListener {
    override def handleNotification(n: Notification, handback: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val gc = info.getGcInfo
        val after = gc.getMemoryUsageAfterGc.asScala.collect {
          case (pool, usage) if heapPools(pool) => usage.getUsed
        }.sum
        val endNs = nano0 + (gc.getEndTime - uptime0) * 1000000L
        if (info.getGcCause != "System.gc()") events.add(GcEvent(endNs, gc.getDuration * 1000000L, after))
      }
  }

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _                      => ()
  }

  def within(startNs: Long, endNs: Long): Seq[GcEvent] =
    events.asScala.filter(e => e.endNs >= startNs && e.endNs <= endNs).toSeq
}
