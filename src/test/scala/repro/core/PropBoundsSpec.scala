package repro.core

import org.scalatest.funsuite.AnyFunSuite

class PropBoundsSpec extends AnyFunSuite {
  import RunningExample.p
  private val ix = RunningExample.index
  private val counter = new LocalPatternCounter(ix)

  test("Example 4.9: Res[4] = {School=GP},{Address=U},{Failures=1}") {
    val res = PropBounds.run(counter, alpha = 0.9, tauS = 5, kMin = 4, kMax = 5)
    assert(res.resByK(4) == Set(p(1 -> 0), p(2 -> 1), p(3 -> 1)))
  }

  test("Example 4.9: Res[5] gains {Gender=F} via its k̃ = 5 entry") {
    val res = PropBounds.run(counter, alpha = 0.9, tauS = 5, kMin = 4, kMax = 5)
    assert(res.resByK(5) == Set(p(0 -> 0), p(1 -> 0), p(2 -> 1), p(3 -> 1)))
  }

  test("single-k run equals the plain top-down search") {
    val got = PropBounds.run(counter, 0.9, 5, 4, 4).resByK(4)
    val b = TopDownSearch.singleK(counter, ProportionalLowerBound(0.9, 16), 5, 4).res.toSet
    assert(got == b)
  }

  test("full range on the running example matches brute force") {
    for (alpha <- Seq(0.5, 0.8, 0.9, 1.0, 1.5, 3.0)) {
      val got = PropBounds.run(counter, alpha, tauS = 4, kMin = 2, kMax = 16)
      val expect = BruteForce.run(ix, ProportionalLowerBound(alpha, 16), 4, 2, 16)
      assert(got.resByK == expect, s"alpha=$alpha")
    }
  }

  test("alpha = 0 and tauS = 0 are rejected") {
    intercept[IllegalArgumentException](PropBounds.run(counter, 0.0, 4, 4, 10))
    intercept[IllegalArgumentException](PropBounds.run(counter, Double.NaN, 4, 4, 10))
    intercept[IllegalArgumentException](PropBounds.run(counter, 0.9, 0, 4, 10))
  }

  test("the engine rejects a bound that decreases in k") {
    val bound = GlobalLowerBound(k => if (k < 8) 3.0 else 2.0)
    intercept[IllegalArgumentException](PropBounds.incremental(counter, bound, 4, 4, 12))
  }

  test("timed-out run flags timedOut") {
    val res = PropBounds.run(counter, 0.9, 4, 4, 10, Budget.ofMillis(-1))
    assert(res.timedOut)
  }

  test("the budget also bounds steps that explore nothing; the partial result is ITERTD's prefix") {
    // τ_s = 4 and k ≥ 6: α = 3 puts the threshold above s_D and L_k = 100
    // above |D|, so every level-1 pattern is biased at every k, none
    // recovers, and no step after kMin runs a BFS wave. Each step sleeps
    // in rankedRow, so the budget expires during those steps.
    val slow = new PatternCounter {
      def width: Int = counter.width
      def domainSizes: IndexedSeq[Int] = counter.domainSizes
      def datasetSize: Long = counter.datasetSize
      def countBatch(ps: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] = counter.countBatch(ps, k)
      def rankedRow(rank: Int): Array[Int] = { Thread.sleep(40); counter.rankedRow(rank) }
    }
    for (bound <- Seq(ProportionalLowerBound(3.0, 16), GlobalLowerBound(_ => 100.0))) {
      val got = PropBounds.incremental(slow, bound, 4, 6, 16, Budget.ofMillis(200))
      val base = IterTD.run(counter, bound, 4, 6, 16)
      assert(got.timedOut, s"$bound")
      assert(got.resByK.keys.toSeq == (6 until 6 + got.resByK.size) && got.resByK.size < 11, s"$bound")
      assert(got.resByK == base.resByK.take(got.resByK.size), s"$bound")
    }
  }

  test("examined is below ITERTD's over a long range") {
    val alpha = 0.8
    val base = IterTD.run(counter, ProportionalLowerBound(alpha, 16), tauS = 4, kMin = 2, kMax = 16)
    val opt  = PropBounds.run(counter, alpha, tauS = 4, kMin = 2, kMax = 16)
    assert(opt.resByK == base.resByK)
    assert(opt.examined < base.examined,
      s"expected fewer examined patterns: opt=${opt.examined} base=${base.examined}")
  }

  for (seed <- 0 until 25)
    test(s"equivalent to ITERTD on random data (seed $seed)") {
      val rix = RandomData.index(seed, n = 40, m = 4)
      val c = new LocalPatternCounter(rix)
      val alpha = 0.5 + 0.1 * (seed % 7)
      val tauS = 3 + seed % 4
      val got  = PropBounds.run(c, alpha, tauS, 2, 35)
      val base = IterTD.run(c, ProportionalLowerBound(alpha, rix.size.toLong), tauS, 2, 35)
      assert(got.resByK == base.resByK, s"seed=$seed alpha=$alpha tauS=$tauS")
    }

  for (seed <- 0 until 8)
    test(s"equivalent to ITERTD on wider random data (5 attrs, seed $seed)") {
      val rix = RandomData.index(seed + 500, n = 60, m = 5)
      val c = new LocalPatternCounter(rix)
      val alpha = 0.6 + 0.1 * (seed % 5)
      val got  = PropBounds.run(c, alpha, 4, 2, 50)
      val base = IterTD.run(c, ProportionalLowerBound(alpha, rix.size.toLong), 4, 2, 50)
      assert(got.resByK == base.resByK, s"seed=$seed alpha=$alpha")
    }

  for (tauS <- Seq(2, 5))
    test(s"equivalent to ITERTD on 300 rows × 8 attributes (τ_s = $tauS, seeds 0–3)") {
      val deepest = (0 until 4).map { seed =>
        val rix = RandomData.index(seed + 700, n = 300, m = 8)
        val c = new LocalPatternCounter(rix)
        val got  = PropBounds.run(c, 0.8, tauS, 10, 60)
        val base = IterTD.run(c, ProportionalLowerBound(0.8, rix.size.toLong), tauS, 10, 60)
        assert(got.resByK == base.resByK, s"seed=$seed")
        got.resByK.values.flatten.map(_.level).max
      }
      assert(deepest.max >= 3, s"no Res[k] reaches level 3: $deepest")
    }

  test("τ_s = 1 with k_max = |D| matches brute force") {
    for (seed <- 0 until 4; alpha <- Seq(0.8, 1.5)) {
      val rix = RandomData.index(seed + 300, n = 30, m = 4)
      val got = PropBounds.run(new LocalPatternCounter(rix), alpha, 1, 1, rix.size)
      assert(got.resByK == BruteForce.run(rix, ProportionalLowerBound(alpha, rix.size.toLong), 1, 1, rix.size),
        s"seed=$seed alpha=$alpha")
    }
  }

  test("a one-attribute schema matches brute force") {
    for (seed <- 0 until 4; tauS <- Seq(1, 4)) {
      val rix = RandomData.index(seed + 400, n = 20, m = 1)
      val got = PropBounds.run(new LocalPatternCounter(rix), 0.9, tauS, 1, rix.size)
      assert(got.resByK == BruteForce.run(rix, ProportionalLowerBound(0.9, rix.size.toLong), tauS, 1, rix.size),
        s"seed=$seed tauS=$tauS")
    }
  }

  test("status can oscillate: a pattern may leave and re-enter the result across k") {
    // Find a witness in random data: a pattern biased at some k, not at
    // k+1, biased again later — the regime PROPBOUNDS must track.
    var witnessed = false
    for (seed <- 0 until 40 if !witnessed) {
      val rix = RandomData.index(seed + 900, n = 30, m = 3)
      val res = BruteForce.run(rix, ProportionalLowerBound(0.9, rix.size.toLong), 3, 2, 28)
      val all = res.values.flatten.toSet
      witnessed = all.exists { q =>
        val in = res.toSeq.sortBy(_._1).map(_._2.contains(q))
        in.zip(in.tail).count { case (a, b) => a && !b } >= 1 &&
          in.zip(in.tail).exists { case (a, b) => !a && b }
      }
    }
    assert(witnessed, "no oscillating pattern found — tighten the generator")
  }
}
