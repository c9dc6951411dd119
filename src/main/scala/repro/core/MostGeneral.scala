package repro.core

/** Keeps a set of patterns most general: the `Res` of Algorithms 1–3.
  *
  * Patterns are fed in nondecreasing level; a pattern joins iff no member
  * is contained in it (a proper sub-pattern, or the pattern itself). Fed a
  * set `S` this way, the members are `{p ∈ S : ¬∃ q ∈ S, q ⊊ p}`.
  *
  * The containment test is output-sensitive: an index maps each
  * (attribute, value) to the members constraining it, and the lists of
  * `p`'s constraints are walked counting hits per member. A member hit as
  * often as its level is contained in `p`. A test therefore costs the
  * total length of the lists it walks, independent of how many patterns
  * were fed before.
  *
  * @param domainSizes cardinality of each attribute's active domain; every
  *                    fed value must lie in its attribute's domain
  */
final class MostGeneral(domainSizes: IndexedSeq[Int]) {

  private val width = domainSizes.length
  // Flat index of (attribute a, value v) is offsets(a) + v.
  private val offsets = domainSizes.scanLeft(0)(_ + _).toArray
  private val lists = Array.fill(offsets(width))(new Array[Int](4))
  private val listLen = new Array[Int](offsets(width))

  private val members = scala.collection.mutable.ArrayBuffer.empty[Pattern]
  private var levels = new Array[Int](16)
  private var hits = new Array[Int](16)
  // hits(m) is valid only while stamps(m) == stamp, so nothing is reset per test.
  private var stamps = new Array[Int](16)
  private var stamp = 0
  private var hasRoot = false
  private var lastLevel = 0

  /** The members, in the order they joined. */
  def result: Seq[Pattern] = members.toSeq

  /** Feeds `p` (of level at least that of every earlier pattern); returns
    * whether it joined, i.e. no member is contained in it.
    */
  def add(p: Pattern): Boolean = {
    require(p.width == width, s"width mismatch: $width vs ${p.width}")
    if (hasRoot) return false
    stamp += 1
    var level = 0
    var i = 0
    while (i < width) {
      val v = p.vals(i)
      if (v != Pattern.Wildcard) {
        level += 1
        val slot = offsets(i) + v
        val list = lists(slot)
        var j = 0
        while (j < listLen(slot)) {
          val m = list(j)
          if (stamps(m) != stamp) { stamps(m) = stamp; hits(m) = 0 }
          hits(m) += 1
          if (hits(m) == levels(m)) return false
          j += 1
        }
      }
      i += 1
    }
    require(level >= lastLevel, s"patterns must be fed in nondecreasing level: $level after $lastLevel")
    lastLevel = level
    join(p, level)
    true
  }

  private def join(p: Pattern, level: Int): Unit = {
    val m = members.length
    members += p
    if (m == levels.length) {
      levels = java.util.Arrays.copyOf(levels, 2 * m)
      hits = java.util.Arrays.copyOf(hits, 2 * m)
      stamps = java.util.Arrays.copyOf(stamps, 2 * m)
    }
    levels(m) = level
    if (level == 0) hasRoot = true
    var i = 0
    while (i < width) {
      val v = p.vals(i)
      if (v != Pattern.Wildcard) {
        val slot = offsets(i) + v
        if (listLen(slot) == lists(slot).length) lists(slot) = java.util.Arrays.copyOf(lists(slot), 2 * listLen(slot))
        lists(slot)(listLen(slot)) = m
        listLen(slot) += 1
      }
      i += 1
    }
  }
}
