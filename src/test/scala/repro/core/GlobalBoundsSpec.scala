package repro.core

import org.scalatest.funsuite.AnyFunSuite

class GlobalBoundsSpec extends AnyFunSuite {
  import RunningExample.p
  private val ix = RunningExample.index
  private val counter = new LocalPatternCounter(ix)

  test("Example 4.6: Res[4] and Res[5] with L_4 = L_5 = 2, τ_s = 4") {
    val res = GlobalBounds.run(counter, GlobalLowerBound(_ => 2.0), tauS = 4, kMin = 4, kMax = 5)
    assert(res.resByK(4) == Set(
      p(1 -> 0), p(2 -> 1), p(3 -> 1), p(3 -> 2), p(0 -> 0, 1 -> 1), p(0 -> 0, 2 -> 0)))
    // k = 5: {Address=U} and {Failures=1} recover; their DRes descendants
    // {G=F/M, A=U}, {G=F, F=1}, {A=R, F=1} are promoted and the new node
    // {Address=U, Failures=1} is discovered — exactly as the paper narrates.
    assert(res.resByK(5) == Set(
      p(1 -> 0), p(3 -> 2), p(0 -> 0, 1 -> 1), p(0 -> 0, 2 -> 0),
      p(0 -> 0, 2 -> 1), p(0 -> 1, 2 -> 1), p(0 -> 0, 3 -> 1), p(2 -> 0, 3 -> 1),
      p(2 -> 1, 3 -> 1)))
  }

  test("bound increase stays correct") {
    val lk: Int => Double = k => if (k < 6) 1.0 else 2.0
    val got = GlobalBounds.run(counter, GlobalLowerBound(lk), tauS = 4, kMin = 4, kMax = 8)
    val expect = BruteForce.run(ix, GlobalLowerBound(lk), 4, 4, 8)
    assert(got.resByK == expect)
  }

  test("decreasing L_k runs the ITERTD baseline and stays correct") {
    val lk: Int => Double = k => if (k < 8) 3.0 else 2.0
    val got = GlobalBounds.run(counter, GlobalLowerBound(lk), tauS = 4, kMin = 4, kMax = 12)
    val base = IterTD.run(counter, GlobalLowerBound(lk), tauS = 4, kMin = 4, kMax = 12)
    assert(got == base)
    assert(got.resByK == BruteForce.run(ix, GlobalLowerBound(lk), 4, 4, 12))
  }

  test("examined is below ITERTD's on the paper's default configuration shape") {
    val bound = GlobalLowerBound(_ => 3.0)
    val base = IterTD.run(counter, bound, tauS = 4, kMin = 4, kMax = 16)
    val opt  = GlobalBounds.run(counter, bound, tauS = 4, kMin = 4, kMax = 16)
    assert(opt.resByK == base.resByK)
    assert(opt.examined < base.examined,
      s"expected fewer examined patterns: opt=${opt.examined} base=${base.examined}")
  }

  test("single-k run equals the plain top-down search") {
    val bound = GlobalLowerBound(_ => 2.0)
    val a = GlobalBounds.run(counter, bound, 4, 4, 4).resByK(4)
    val b = TopDownSearch.singleK(counter, bound, 4, 4).res.toSet
    assert(a == b)
  }

  test("timed-out run flags timedOut") {
    val res = GlobalBounds.run(counter, GlobalLowerBound(_ => 2.0), 4, 4, 10, Budget.ofMillis(-1))
    assert(res.timedOut)
  }

  for (seed <- 0 until 20)
    test(s"equivalent to ITERTD on random data with constant bound (seed $seed)") {
      val rix = RandomData.index(seed, n = 40, m = 4)
      val c = new LocalPatternCounter(rix)
      val bound = GlobalLowerBound(_ => (2 + seed % 4).toDouble)
      val tauS = 3 + seed % 3
      val got  = GlobalBounds.run(c, bound, tauS, 2, 35)
      val base = IterTD.run(c, bound, tauS, 2, 35)
      assert(got.resByK == base.resByK, s"seed=$seed")
    }

  for (seed <- 0 until 20)
    test(s"equivalent to ITERTD on random data with step bounds (seed $seed)") {
      val rix = RandomData.index(seed + 200, n = 40, m = 5)
      val c = new LocalPatternCounter(rix)
      val bound = RandomData.stepBound(seed, 30)
      val tauS = 3 + seed % 4
      val got  = GlobalBounds.run(c, bound, tauS, 2, 30)
      val base = IterTD.run(c, bound, tauS, 2, 30)
      assert(got.resByK == base.resByK, s"seed=$seed")
    }

  for (tauS <- Seq(2, 5))
    test(s"equivalent to ITERTD on 300 rows × 8 attributes with step bounds (τ_s = $tauS, seeds 0–3)") {
      val deepest = (0 until 4).map { seed =>
        val rix = RandomData.index(seed + 700, n = 300, m = 8)
        val c = new LocalPatternCounter(rix)
        val bound = RandomData.stepBound(seed, 60)
        val got  = GlobalBounds.run(c, bound, tauS, 10, 60)
        val base = IterTD.run(c, bound, tauS, 10, 60)
        assert(got.resByK == base.resByK, s"seed=$seed")
        got.resByK.values.flatten.map(_.level).max
      }
      assert(deepest.max >= 3, s"no Res[k] reaches level 3: $deepest")
    }

  test("τ_s = 1 with k_max = |D| matches brute force") {
    for (seed <- 0 until 4) {
      val rix = RandomData.index(seed + 300, n = 30, m = 4)
      val bound = RandomData.stepBound(seed, rix.size)
      val got = GlobalBounds.run(new LocalPatternCounter(rix), bound, 1, 1, rix.size)
      assert(got.resByK == BruteForce.run(rix, bound, 1, 1, rix.size), s"seed=$seed")
    }
  }

  test("a one-attribute schema matches brute force") {
    for (seed <- 0 until 4; tauS <- Seq(1, 4)) {
      val rix = RandomData.index(seed + 400, n = 20, m = 1)
      val bound = RandomData.stepBound(seed, rix.size)
      val got = GlobalBounds.run(new LocalPatternCounter(rix), bound, tauS, 1, rix.size)
      assert(got.resByK == BruteForce.run(rix, bound, tauS, 1, rix.size), s"seed=$seed tauS=$tauS")
    }
  }

  test("Proposition 4.3 sanity: the new tuple affects at most half the tracked patterns") {
    // For every k, the tuple R(D)[k] satisfies at most half of any sibling
    // value-pair set; check the weaker observable: affected ≤ |B|.
    val bound = GlobalLowerBound(_ => 2.0)
    for (k <- 5 to 16) {
      val snap = TopDownSearch.singleK(counter, bound, 4, k - 1)
      val tracked = snap.res ++ snap.dres
      val affected = tracked.count(_.matches(counter.rankedRow(k)))
      assert(affected <= tracked.size)
    }
  }
}
