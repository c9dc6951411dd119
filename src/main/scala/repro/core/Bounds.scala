package repro.core

/** Lower-bound specification deciding when a pattern's top-k count is
  * biased. Mirrors the two problem definitions of the paper; both are
  * expressed through a per-(pattern, k) threshold so the top-down search
  * (Algorithm 1) is shared, exactly as the paper's baseline is.
  */
sealed trait BiasBound {

  /** Representation threshold for a pattern with dataset size `sD` in the
    * top-`k`; the pattern is biased iff its top-k count is strictly below.
    */
  def threshold(sD: Long, k: Int): Double

  /** Is a pattern with the given counts biased at position `k`? */
  final def biased(cnt: Long, sD: Long, k: Int): Boolean =
    cnt.toDouble < threshold(sD, k)

  /** Does the threshold never decrease as k grows through `[kMin, kMax]`?
    * The incremental engine ([[PropBounds.incremental]]) needs this: a
    * pattern's top-k count never falls, so a biased pattern can then
    * recover only by gaining a tuple.
    */
  def nondecreasing(kMin: Int, kMax: Int): Boolean

  /** The first k in `[from, until]` at which a pattern with a fixed top-k
    * count `cnt` and dataset size `sD` is biased, or `Int.MaxValue` if
    * there is none. This is `k̃` of Section IV-C for the proportional
    * bound, and the next step of `L_k` above `cnt` for global bounds.
    * A binary search on [[biased]] itself, so it agrees with the predicate
    * exactly; valid only where the threshold does not decrease in k.
    */
  final def nextBiasedK(cnt: Long, sD: Long, from: Int, until: Int): Int =
    if (from > until || !biased(cnt, sD, until)) Int.MaxValue
    else {
      var lo = from
      var hi = until
      while (lo < hi) {
        val mid = lo + (hi - lo) / 2
        if (biased(cnt, sD, mid)) hi = mid else lo = mid + 1
      }
      lo
    }
}

/** Problem 3.1: user-given bounds `L_k`, independent of the group size. */
final case class GlobalLowerBound(lk: Int => Double) extends BiasBound {
  override def threshold(sD: Long, k: Int): Double = lk(k)

  override def nondecreasing(kMin: Int, kMax: Int): Boolean =
    (kMin until kMax).forall(k => lk(k + 1) >= lk(k))
}

object GlobalLowerBound {

  /** The paper's default step bounds: 10 for k∈[10,20), 20 for [20,30),
    * 30 for [30,40), 40 for k ≥ 40 (Section VI-A).
    */
  val paperDefault: GlobalLowerBound =
    GlobalLowerBound(k => math.min(40, (k / 10) * 10).toDouble)
}

/** Problem 3.2: proportional bound `α · s_D(p) · k / |D|`. */
final case class ProportionalLowerBound(alpha: Double, dSize: Long) extends BiasBound {
  require(dSize > 0, "dataset must be non-empty")

  override def threshold(sD: Long, k: Int): Double =
    alpha * sD * k / dSize

  override def nondecreasing(kMin: Int, kMax: Int): Boolean = alpha >= 0
}

/** Cooperative wall-clock budget for the searches; checked before every
  * BFS wave and, in the incremental engine, before every k, so a timed-out
  * run returns a partial result quickly (the paper uses a 10-minute
  * timeout in Figures 4–5).
  */
final class Budget(deadlineNanos: Long) {
  def expired: Boolean = System.nanoTime() > deadlineNanos
}

object Budget {
  /** No deadline. */
  val unlimited: Budget = new Budget(Long.MaxValue)

  /** Budget expiring `millis` from now. */
  def ofMillis(millis: Long): Budget = new Budget(System.nanoTime() + millis * 1000000L)
}
