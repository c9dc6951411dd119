package perfbench

import java.nio.file.Path
import java.time.Duration

import scala.jdk.CollectionConverters._

import jdk.jfr.Recording
import jdk.jfr.consumer.RecordingFile

/** JFR execution samples, rolled up per layer entry frame.
  *
  * A sample belongs to the innermost frame on its stack that enters a
  * layer, so a count made from inside the BFS is "count", not "bfs".
  * Samples with no such frame (Spark internals, JIT, idle executor
  * threads) count only in the base.
  */
object Jfr {

  val Layers: Seq[String] = Seq("maint", "bfs", "count", "algo", "ingest", "analysis")

  private val CountTypes = Set(
    "repro.core.LocalPatternCounter", "repro.core.SparkPatternCounter",
    "repro.core.PatternCounter", "repro.core.DatasetIndex", "perfbench.TimedCounter")
  private val AlgoTypes = Seq("repro.core.IterTD", "repro.core.GlobalBounds", "repro.core.PropBounds")

  def layerOf(typeName: String, method: String): Option[String] =
    if (typeName.startsWith("repro.core.Pattern") && method.contains("splitMostGeneral")) Some("maint")
    else if (typeName.startsWith("repro.core.TopDownSearch") && method.contains("bfs")) Some("bfs")
    else if (CountTypes(typeName.stripSuffix("$"))) Some("count")
    else if (AlgoTypes.exists(typeName.startsWith)) Some("algo")
    else if (typeName.startsWith("repro.data.Encoding")) Some("ingest")
    else if (typeName.startsWith("repro.shapley.")) Some("analysis")
    else None

  def start(): Recording = {
    val r = new Recording()
    r.enable("jdk.ExecutionSample").withPeriod(Duration.ofMillis(10))
    r.start()
    r
  }

  /** Stop `r`, write it to `file`, and return (samples, samples per layer). */
  def rollUp(r: Recording, file: Path): (Long, Map[String, Long]) = {
    r.stop()
    r.dump(file)
    r.close()
    var total = 0L
    val perLayer = scala.collection.mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    for (e <- RecordingFile.readAllEvents(file).asScala if e.getEventType.getName == "jdk.ExecutionSample") {
      total += 1
      val stack = Option(e.getStackTrace).map(_.getFrames.asScala).getOrElse(Nil)
      stack.iterator
        .flatMap(f => layerOf(f.getMethod.getType.getName, f.getMethod.getName))
        .nextOption()
        .foreach(l => perLayer(l) += 1)
    }
    (total, perLayer.toMap)
  }
}
