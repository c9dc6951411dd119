package repro.shapley

/** Ridge regression over one-hot-encoded categorical attributes — the
  * paper's surrogate regression model `M_R` trained on
  * `D_R = {(t, R(D)[t])}` to approximate the black-box ranker
  * (Section V).
  *
  * The design-matrix moments `XᵀX`, `Xᵀy` and the feature sums are
  * accumulated in one pass over the encoded rows on the driver, and the
  * regularized normal equations are solved with a dense Cholesky
  * factorization; the feature count is Σ |Dom(A_i)| + 1 — tiny compared
  * to the data.
  */
object RidgeRegression {

  /** Fitted model.
    *
    * @param offsets      start of each attribute's one-hot block; the
    *                     last entry is the intercept index
    * @param weights      feature weights, intercept last
    * @param featureMeans mean of each one-hot feature over the training
    *                     data (the background distribution for Shapley)
    */
  final case class Model(
      attrCols: IndexedSeq[String],
      domainSizes: IndexedSeq[Int],
      offsets: IndexedSeq[Int],
      weights: Array[Double],
      featureMeans: Array[Double],
  ) {

    /** Predicted label for an encoded tuple (value index per attribute). */
    def predict(row: Array[Int]): Double = {
      var y = weights(offsets.last) // intercept
      var a = 0
      while (a < attrCols.length) {
        y += weights(offsets(a) + row(a))
        a += 1
      }
      y
    }

    /** Mean prediction over the training (background) distribution. */
    def meanPrediction: Double = {
      var y = weights(offsets.last)
      var j = 0
      while (j < offsets.last) { y += weights(j) * featureMeans(j); j += 1 }
      y
    }
  }

  /** Fit on encoded rows (value index per attribute, as in
    * [[repro.core.DatasetIndex.rows]]) with one label per row.
    */
  def fit(
      rows: Array[Array[Int]],
      labels: Array[Double],
      attrCols: Seq[String],
      domainSizes: IndexedSeq[Int],
      lambda: Double = 1e-6,
  ): Model = {
    require(rows.length == labels.length, "one label per row")
    val n = rows.length
    require(n > 0, "empty training set")

    val m = attrCols.length
    val offsets = domainSizes.scanLeft(0)(_ + _) // offsets(m) = #one-hot features
    val d = offsets(m) + 1                       // + intercept
    val tri = d * (d + 1) / 2                    // upper-triangular XtX size

    val xtxTri = new Array[Double](tri)
    val xty = new Array[Double](d)
    val feat = new Array[Int](m + 1)
    var r = 0
    while (r < n) {
      var a = 0
      while (a < m) { feat(a) = offsets(a) + rows(r)(a); a += 1 }
      feat(m) = d - 1 // intercept
      val y = labels(r)
      var i = 0
      while (i <= m) {
        val fi = feat(i)
        xty(fi) += y
        var j = i
        while (j <= m) {
          val fj = feat(j)
          val (lo, hi) = if (fi <= fj) (fi, fj) else (fj, fi)
          xtxTri(lo * d - lo * (lo - 1) / 2 + (hi - lo)) += 1.0
          j += 1
        }
        i += 1
      }
      r += 1
    }

    // densify upper-triangular XtX and add the ridge
    val a = Array.ofDim[Double](d, d)
    var i = 0
    while (i < d) {
      var j = i
      while (j < d) {
        val v = xtxTri(i * d - i * (i - 1) / 2 + (j - i))
        a(i)(j) = v; a(j)(i) = v
        j += 1
      }
      a(i)(i) += lambda
      i += 1
    }
    val w = Linalg.choleskySolve(a, xty)
    val means = Array.tabulate(offsets(m)) { j =>
      // feature count = diagonal of XtX (before ridge); recover it
      (a(j)(j) - lambda) / n
    }
    Model(attrCols.toIndexedSeq, domainSizes, offsets.toIndexedSeq, w, means)
  }
}

/** Minimal dense linear algebra for the normal equations. */
object Linalg {

  /** Solve `A x = b` for symmetric positive-definite `A` (modifies a copy). */
  def choleskySolve(aIn: Array[Array[Double]], bIn: Array[Double]): Array[Double] = {
    val d = bIn.length
    val a = Array.tabulate(d, d)((i, j) => aIn(i)(j))
    val b = bIn.clone()
    // in-place Cholesky: a := L with A = L Lᵀ
    var i = 0
    while (i < d) {
      var j = 0
      while (j <= i) {
        var s = a(i)(j)
        var k = 0
        while (k < j) { s -= a(i)(k) * a(j)(k); k += 1 }
        if (i == j) {
          require(s > 0, s"matrix not positive definite at $i (s=$s)")
          a(i)(i) = math.sqrt(s)
        } else a(i)(j) = s / a(j)(j)
        j += 1
      }
      i += 1
    }
    // forward substitution L y = b
    i = 0
    while (i < d) {
      var s = b(i)
      var k = 0
      while (k < i) { s -= a(i)(k) * b(k); k += 1 }
      b(i) = s / a(i)(i)
      i += 1
    }
    // back substitution Lᵀ x = y
    i = d - 1
    while (i >= 0) {
      var s = b(i)
      var k = i + 1
      while (k < d) { s -= a(k)(i) * b(k); k += 1 }
      b(i) = s / a(i)(i)
      i -= 1
    }
    b
  }
}
