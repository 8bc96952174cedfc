package org.apache.spark

/** The listener bus is private to Spark; the tracer must wait for it to
  * deliver every task-end event before it reads its per-span counters.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
