package repro.core

import scala.collection.immutable.SortedMap
import scala.collection.mutable

/** PROPBOUNDS (Algorithm 3) — incremental detection for Problem 3.2 — and
  * the incremental engine it shares with GLOBALBOUNDS (Algorithm 2).
  *
  * The engine runs for any [[BiasBound]] whose threshold does not decrease
  * in k (Props. 4.3, 4.5 and 4.8). A pattern's top-k count changes only
  * when the newly admitted tuple `R(D)[k]` satisfies it, and then by +1;
  * such a pattern, if biased, may recover. A pattern the tuple does not
  * satisfy keeps its count and becomes biased exactly at the first k
  * where the threshold passes that count: `k̃` for the proportional
  * bound (Section IV-C), the next step of `L_k` for global bounds. Both
  * are [[BiasBound.nextBiasedK]].
  *
  * The engine therefore tracks every visited node with its dataset size
  * and running top-k count, keeps the paper's `K` structure as buckets
  * `k̃ → patterns` (entries are verified lazily when their bucket is
  * reached), and resumes the top-down search below any node that flips
  * from biased to adequately represented and whose subtree had never been
  * expanded. Every visited unbiased node has been expanded, so every most
  * general biased pattern is visited, and `Res[k]` is the set of most
  * general currently-biased visited nodes. At each k where the biased set
  * changed, `Res[k]` is rebuilt by feeding that set, level by level, to a
  * [[MostGeneral]] filter. Correctness is enforced by tests against ITERTD
  * on randomized inputs.
  */
object PropBounds {

  private final class NodeState(val sD: Long, var cnt: Long, val level: Int) {
    var biased = false
    // Whether the node's search-tree children have been generated.
    var expanded = false
  }

  /** PROPBOUNDS for the bound `α · s_D(p) · k / |D|`. */
  def run(
      counter: PatternCounter,
      alpha: Double,
      tauS: Long,
      kMin: Int,
      kMax: Int,
      budget: Budget = Budget.unlimited,
  ): DetectionResult = {
    require(alpha > 0 && alpha < Double.PositiveInfinity, s"alpha must be finite and > 0, got $alpha")
    incremental(counter, ProportionalLowerBound(alpha, counter.datasetSize), tauS, kMin, kMax, budget)
  }

  /** The incremental engine over `[kMin, kMax]` for a `bound` whose
    * threshold does not decrease in k over that range.
    */
  def incremental(
      counter: PatternCounter,
      bound: BiasBound,
      tauS: Long,
      kMin: Int,
      kMax: Int,
      budget: Budget = Budget.unlimited,
  ): DetectionResult = {
    require(kMin >= 1 && kMax >= kMin && kMax <= counter.datasetSize, s"bad range [$kMin,$kMax]")
    require(tauS >= 1, s"tauS must be >= 1, got $tauS")
    require(bound.nondecreasing(kMin, kMax), s"bound threshold decreases within [$kMin,$kMax]")

    var res = SortedMap.empty[Int, Set[Pattern]]
    var examined = 0L
    var timedOut = false

    // Every visited node with s_D ≥ τ_s, with its live top-k count.
    val visited = mutable.LinkedHashMap.empty[Pattern, NodeState]
    // Currently biased visited nodes, by level, so Res is rebuilt in level
    // order without a sort.
    val biasedByLevel = Array.fill(counter.width + 1)(mutable.LinkedHashSet.empty[Pattern])
    // The paper's K: k̃ → candidate patterns (lazily verified on arrival).
    val kBuckets = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Pattern]]

    /** Queue `p`, adequately represented at `k`, for the k where it turns biased. */
    def schedule(p: Pattern, st: NodeState, k: Int): Unit = {
      val next = bound.nextBiasedK(st.cnt, st.sD, k + 1, kMax)
      if (next <= kMax) kBuckets.getOrElseUpdate(next, mutable.ArrayBuffer.empty) += p
    }

    def setBiased(p: Pattern, st: NodeState, biased: Boolean): Unit = {
      st.biased = biased
      if (biased) biasedByLevel(st.level) += p else biasedByLevel(st.level) -= p
    }

    /** The most general currently biased nodes: `Res[k]`. */
    def mostGeneralBiased(): Set[Pattern] = {
      val filter = new MostGeneral(counter.domainSizes)
      biasedByLevel.foreach(_.foreach(filter.add))
      filter.result.toSet
    }

    /** BFS below `frontier0` at position k, recording node states. */
    def explore(frontier0: Seq[Pattern], k: Int): Unit = {
      if (frontier0.isEmpty) return
      val (ex, to) = TopDownSearch.bfs(counter, bound, tauS, k, frontier0, budget) {
        case TopDownSearch.Biased(p, sD, cnt) =>
          val st = new NodeState(sD, cnt, p.level)
          visited(p) = st
          setBiased(p, st, biased = true)
        case TopDownSearch.Open(p, sD, cnt) =>
          val st = new NodeState(sD, cnt, p.level)
          visited(p) = st
          st.expanded = true
          schedule(p, st, k)
      }
      examined += ex
      timedOut ||= to
    }

    /** Admit the tuple `R(D)[k]`; returns whether the biased set changed. */
    def advance(k: Int): Boolean = {
      var changed = false
      val newRow = counter.rankedRow(k)

      // 1. Patterns the new tuple satisfies: bump counts; biased ones may
      //    recover (and then their cut subtree must be explored).
      val recovered = mutable.ArrayBuffer.empty[Pattern]
      for ((p, st) <- visited if p.matches(newRow)) {
        st.cnt += 1
        if (st.biased && !bound.biased(st.cnt, st.sD, k)) {
          setBiased(p, st, biased = false)
          changed = true
          schedule(p, st, k)
          if (!st.expanded) {
            st.expanded = true
            recovered += p
          }
        }
      }
      explore(recovered.toSeq.flatMap(_.searchTreeChildren(counter.domainSizes)), k)

      // 2. Patterns reaching their k̃ this round become biased without any
      //    count change. Entries are stale-tolerant: verify with the live
      //    count; if not biased yet (count grew since scheduling),
      //    reschedule.
      kBuckets.remove(k).foreach { bucket =>
        for (p <- bucket) {
          val st = visited(p)
          if (!st.biased) {
            if (bound.biased(st.cnt, st.sD, k)) {
              setBiased(p, st, biased = true)
              changed = true
            } else schedule(p, st, k)
          }
        }
      }
      changed
    }

    var currentRes: Set[Pattern] = Set.empty
    var k = kMin
    while (k <= kMax && !timedOut) {
      // A step that explores nothing never reaches the BFS's own check.
      if (budget.expired) timedOut = true
      else {
        val changed =
          if (k == kMin) {
            explore(Pattern.root(counter.width).searchTreeChildren(counter.domainSizes), k)
            true
          } else advance(k)
        if (!timedOut) {
          if (changed) currentRes = mostGeneralBiased()
          res += k -> currentRes
        }
      }
      k += 1
    }
    DetectionResult(res, examined, timedOut)
  }
}
