package org.apache.spark

/** Access to the listener bus, which is package-private in Spark. The
  * bus delivers events asynchronously; draining it before reading a
  * listener's counters makes sure every job of a span is attributed.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
