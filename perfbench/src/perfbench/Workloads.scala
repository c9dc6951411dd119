package perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{BiasDataGen, Encoding}
import repro.data.BiasDataGen.RankedDataset
import repro.shapley.ResultAnalysis

/** Lower bound of a query, built once |D| is known. */
sealed trait BoundSpec { def apply(dSize: Long): BiasBound }

/** The paper's step bounds `L_k` (10, 20, 30, 40). */
case object StepBound extends BoundSpec {
  def apply(dSize: Long): BiasBound = GlobalLowerBound.paperDefault
}

/** The proportional bound `α · s_D · k / |D|`. */
final case class PropBound(alpha: Double) extends BoundSpec {
  def apply(dSize: Long): BiasBound = ProportionalLowerBound(alpha, dSize)
}

/** One detection query: an algorithm, its bound, τ_s and the k range. */
final case class Query(dataset: String, algo: String, spec: BoundSpec, tauS: Long, kMin: Int, kMax: Int) {
  def label: String = s"$dataset/$algo[$kMin,$kMax]"

  def run(counter: PatternCounter, budget: Budget): DetectionResult = (algo, spec(counter.datasetSize)) match {
    case ("globalbounds", b: GlobalLowerBound) => GlobalBounds.run(counter, b, tauS, kMin, kMax, budget)
    case ("propbounds", b: ProportionalLowerBound) => PropBounds.run(counter, b.alpha, tauS, kMin, kMax, budget)
    case ("itertd", b) => IterTD.run(counter, b, tauS, kMin, kMax, budget)
    case other => throw new IllegalArgumentException(s"no such query: $other")
  }
}

object Query {
  val Algos: Seq[String] = Seq("itertd", "globalbounds", "propbounds")
  val Alpha = 0.8
  val TauS = 50L
  def gb(ds: String, kMin: Int, kMax: Int): Query = Query(ds, "globalbounds", StepBound, TauS, kMin, kMax)
  def pb(ds: String, kMin: Int, kMax: Int): Query = Query(ds, "propbounds", PropBound(Alpha), TauS, kMin, kMax)
  def itd(ds: String, kMin: Int, kMax: Int): Query = Query(ds, "itertd", StepBound, TauS, kMin, kMax)
}

/** A generated dataset.
  *
  * @param scoring   the attributes that drive its ranking score
  * @param t4Attr    the attribute of the paper-analogue group T4 explains
  */
final case class DataSpec(name: String, rows: Long, scoring: Set[String], t4Attr: String,
                          make: (SparkSession, Long) => RankedDataset)

object DataSpec {
  val compas: DataSpec = DataSpec("compas", 6889,
    Set("days_from_compas", "juv_other_count", "days_b_screening", "c_start", "c_end", "age_bucket", "priors_count"),
    "age_bucket", (s, seed) => BiasDataGen.compasLike(s, seed = seed))
  val student: DataSpec = DataSpec("student", 395, Set("sex", "address", "Medu", "G1", "G2", "G3"),
    "Medu", (s, seed) => BiasDataGen.studentLike(s, seed = seed))
  val german: DataSpec = DataSpec("german", 1000,
    Set("status_account", "duration", "credit_amount", "installment_rate"),
    "status_account", (s, seed) => BiasDataGen.germanLike(s, seed = seed))

  /** COMPAS-like data with its first 10 attributes, at `n` rows. */
  def compasRows(n: Long): DataSpec = compas.copy(name = s"compas$n", rows = n,
    make = (s, seed) => BiasDataGen.compasLike(s, nAttrs = 10, n = n, seed = seed))
}

/** One operation of a session, kept for the gate that runs afterwards. */
sealed trait Op { def what: String }
final case class IngestOp(what: String, ds: String, index: DatasetIndex) extends Op
final case class QueryOp(what: String, q: Query, result: DetectionResult, render: Pattern => String) extends Op
final case class ExplainOp(what: String, ds: String, k: Int, ex: ResultAnalysis.Explanation) extends Op
final case class FailedOp(what: String, error: String) extends Op

/** An ingest reduced, after its session, to what the gate compares. */
final case class IngestDigest(what: String, ds: String, size: Long, rows: Long) extends Op
/** A query reduced, after its session, to its rendered `Res[k]`. */
final case class QueryAnswer(what: String, q: Query, res: Check.Rendered, timedOut: Boolean) extends Op

/** What one session did and how long its phases took. */
final class SessionRecord(val index: Int, val traced: Boolean) {
  var startNs = 0L
  var endNs = 0L
  var ingestNs = 0L
  var detectNs = 0L
  var explainNs = 0L
  val ops = scala.collection.mutable.ArrayBuffer.empty[Op]
  var examined = 0L
  var heapEndBytes = 0L
  var ingestRows = 0L
  var indexBytes = 0L
  var resTotal = 0L
  var resDistinct = 0L
  def wallNs: Long = endNs - startNs
}

/** Everything a session needs; the data is generated once per run. */
final class Ctx(val probe: Probe) {
  val budgetMs = 60000L
  var data: Map[String, RankedDataset] = Map.empty
  /** Indexes built in set-up, for workloads that do not ingest per session. */
  var setupIndex: Map[String, DatasetIndex] = Map.empty

  private def timed[A](add: Long => Unit)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally add(System.nanoTime() - t0)
  }

  /** Run `body` as one operation; a failure is recorded instead of thrown. */
  def op[A](rec: SessionRecord, what: String)(body: => A): Option[A] =
    try Some(body)
    catch {
      case e: Exception =>
        rec.ops += FailedOp(what, s"${e.getClass.getSimpleName}: ${e.getMessage}")
        None
    }

  def ingest(rec: SessionRecord, spec: DataSpec): Option[DatasetIndex] = op(rec, s"ingest ${spec.name}") {
    val ds = data(spec.name)
    val ix = timed(rec.ingestNs += _)(
      probe.span("ingest", spec.name)(Encoding.index(ds.df, ds.attrCols, ds.rankCol)))
    rec.ops += IngestOp(s"ingest ${spec.name}", spec.name, ix)
    ix
  }

  def detect(rec: SessionRecord, q: Query, counter: PatternCounter, render: Pattern => String): Option[DetectionResult] =
    op(rec, q.label) {
      val c = if (probe.traced) new TimedCounter(counter, probe, q.algo) else counter
      val r = timed(rec.detectNs += _)(probe.span("detect", q.algo)(q.run(c, Budget.ofMillis(budgetMs))))
      rec.ops += QueryOp(q.label, q, r, render)
      rec.examined += r.examined
      if (probe.traced) probe.tally("examined." + q.algo, r.examined.toDouble)
      r
    }

  def explain(rec: SessionRecord, spec: DataSpec, group: Pattern, k: Int): Unit =
    op(rec, s"explain ${spec.name}") {
      val ex = timed(rec.explainNs += _)(
        probe.span("analysis", spec.name)(ResultAnalysis.explain(data(spec.name), group, k)))
      rec.ops += ExplainOp(s"explain ${spec.name}", spec.name, k, ex)
    }

  def skip(rec: SessionRecord, what: String): Unit = rec.ops += FailedOp(what, "skipped after an earlier failure")
}

/** A named workload: its datasets, its set-up and one session. A
  * session works on each dataset in turn; `unit` is its part for one.
  */
sealed trait Workload {
  def name: String
  def datasets: Seq[DataSpec]
  /** Work done once in set-up, after the data is generated and cached. */
  def prepare(ctx: Ctx): Unit = ()
  def unit(ctx: Ctx, rec: SessionRecord, spec: DataSpec): Unit
}

object Workload {
  val all: Seq[Workload] = Seq(PaperAudit, WideK, Scale)
  def named(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$n'; expected one of ${all.map(_.name).mkString(", ")}"))
}

/** What a user runs: ingest, GLOBALBOUNDS and PROPBOUNDS at the paper
  * defaults on all three datasets, then explain a group detected at
  * k = 49 (where `L_k` = 40), chosen as T4 chooses it: the paper-analogue
  * group on the dataset's T4 attribute, else the largest group.
  */
object PaperAudit extends Workload {
  val name = "paper-audit"
  val datasets = Seq(DataSpec.compas, DataSpec.student, DataSpec.german)
  val (kMin, kMax) = (10, 49)

  def unit(ctx: Ctx, rec: SessionRecord, spec: DataSpec): Unit = ctx.ingest(rec, spec) match {
    case None => Seq("globalbounds", "propbounds", "explain").foreach(a => ctx.skip(rec, s"${spec.name} $a"))
    case Some(ix) =>
      val counter = new LocalPatternCounter(ix)
      val gb = ctx.detect(rec, Query.gb(spec.name, kMin, kMax), counter, ix.render)
      ctx.detect(rec, Query.pb(spec.name, kMin, kMax), counter, ix.render)
      gb.flatMap(_.resByK.get(kMax)).filter(_.nonEmpty) match {
        case Some(groups) =>
          val a = ix.attrNames.indexOf(spec.t4Attr)
          val group = groups.filter(_.attrs == Seq(a)).minByOption(_.vals(a))
            .getOrElse(groups.toSeq.sortBy(ix.render).maxBy(ix.sizeD))
          ctx.explain(rec, spec, group, kMax)
        case None => rec.ops += FailedOp(s"explain ${spec.name}", s"no group detected at k=$kMax")
      }
  }
}

/** Result maintenance dominates: GLOBALBOUNDS and PROPBOUNDS over a wide
  * k range on student and german, with the indexes built in set-up.
  */
object WideK extends Workload {
  val name = "wide-k"
  val datasets = Seq(DataSpec.student, DataSpec.german)
  val (kMin, kMax) = (10, 80)

  override def prepare(ctx: Ctx): Unit =
    ctx.setupIndex = Main.inParallel(datasets) { s =>
      val ds = ctx.data(s.name)
      s.name -> Encoding.index(ds.df, ds.attrCols, ds.rankCol)
    }.toMap

  def unit(ctx: Ctx, rec: SessionRecord, spec: DataSpec): Unit = {
    val ix = ctx.setupIndex(spec.name)
    val counter = new LocalPatternCounter(ix)
    ctx.detect(rec, Query.gb(spec.name, kMin, kMax), counter, ix.render)
    ctx.detect(rec, Query.pb(spec.name, kMin, kMax), counter, ix.render)
  }
}

/** The counting kernel dominates: many rows, so every count ANDs long
  * bitsets. One ingest, then PROPBOUNDS, GLOBALBOUNDS and ITERTD.
  */
object Scale extends Workload {
  val name = "scale"
  val datasets = Seq(DataSpec.compasRows(300000))
  val (kMin, kMax) = (10, 49)

  def unit(ctx: Ctx, rec: SessionRecord, spec: DataSpec): Unit = ctx.ingest(rec, spec) match {
    case None => Query.Algos.foreach(a => ctx.skip(rec, s"${spec.name} $a"))
    case Some(ix) =>
      val counter = new LocalPatternCounter(ix)
      for (q <- Seq(Query.pb(spec.name, kMin, kMax), Query.gb(spec.name, kMin, kMax), Query.itd(spec.name, kMin, kMax)))
        ctx.detect(rec, q, counter, ix.render)
  }
}
