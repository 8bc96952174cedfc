package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** One timed call from the benchmark into a layer, plus the Spark work that
  * ran under its job group. Counters are filled on the listener-bus thread
  * and are complete only after [[Tracer.finish]].
  */
final class Span(val id: Long, val name: String, val parent: Long, val startNs: Long) {
  var endNs = 0L
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var shuffleWriteBytes = 0L
  var shuffleReadBytes = 0L
  var executorRunMs = 0L
  var executorCpuNs = 0L
  var gcMs = 0L
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder. Disabled, it only runs the body: untraced runs
  * register no listener and set no job groups.
  *
  * Each span tags the jobs it submits with its own Spark job group, so the
  * listener attributes jobs, stages and task metrics to the innermost span
  * that caused them.
  */
final class Tracer(spark: SparkSession, val enabled: Boolean) {
  private val sc = spark.sparkContext
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val byId = new ConcurrentHashMap[Long, Span]
  private val byStage = new ConcurrentHashMap[Int, Span]
  private var stack = List.empty[Span]
  private var nextId = 1L
  @volatile private var listenerNs = 0L
  private var bookkeepingNs = 0L

  private def spanOf(props: java.util.Properties): Option[Span] =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .flatMap(g => g.toLongOption).flatMap(id => Option(byId.get(id)))

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val t0 = System.nanoTime()
      spanOf(e.properties).foreach(_.jobs += 1)
      listenerNs += System.nanoTime() - t0
    }
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
      val t0 = System.nanoTime()
      spanOf(e.properties).foreach { s =>
        s.stages += 1
        byStage.put(e.stageInfo.stageId, s)
      }
      listenerNs += System.nanoTime() - t0
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val t0 = System.nanoTime()
      Option(byStage.get(e.stageId)).foreach { s =>
        s.tasks += 1
        val m = e.taskMetrics
        if (m != null) {
          s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
          s.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
          s.executorRunMs += m.executorRunTime
          s.executorCpuNs += m.executorCpuTime
          s.gcMs += m.jvmGCTime
        }
      }
      listenerNs += System.nanoTime() - t0
    }
  }

  if (enabled) sc.addSparkListener(listener)

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val t0 = System.nanoTime()
      val s = new Span(nextId, name, stack.headOption.map(_.id).getOrElse(0L), t0)
      nextId += 1
      spans += s
      byId.put(s.id, s)
      stack = s :: stack
      sc.setJobGroup(s.id.toString, name)
      try body
      finally {
        s.endNs = System.nanoTime()
        stack = stack.tail
        stack.headOption match {
          case Some(p) => sc.setJobGroup(p.id.toString, p.name)
          case None    => sc.clearJobGroup()
        }
        bookkeepingNs += System.nanoTime() - s.endNs
      }
    }

  /** Waits for the listener bus, then returns every span in start order. */
  def finish(): Seq[Span] = {
    if (enabled) ListenerBusDrain(sc)
    spans.toSeq
  }

  /** Time the tracer itself spent: span bookkeeping on the calling thread
    * plus listener callbacks on the bus thread.
    */
  def ownSeconds: Double = (bookkeepingNs + listenerNs) / 1e9
}

/** Derived views of a finished trace. */
object Trace {

  /** Layer a span belongs to: `core.index` → `core`; the benchmark's own
    * spans (`setup`, `op`, `gate`, …) → `bench`.
    */
  def layer(s: Span): String = s.name.takeWhile(_ != '.') match {
    case l @ ("lake" | "core" | "text" | "lsh" | "stats") => l
    case _                                              => "bench"
  }

  val layers: Seq[String] = Seq("bench", "lake", "core", "text", "lsh", "stats")

  /** Per layer, the time its spans were open minus the time their child
    * spans covered (children run on the calling thread, so they never
    * overlap).
    */
  def selfTimes(spans: Seq[Span]): Map[String, Double] = {
    val childSeconds = spans.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.seconds).sum }
    val self = spans.groupBy(layer).map { case (l, ss) =>
      l -> ss.map(s => s.seconds - childSeconds.getOrElse(s.id, 0.0)).sum
    }
    layers.map(l => s"self.$l.s" -> self.getOrElse(l, 0.0)).toMap
  }

  /** The span and all its descendants. */
  def subtree(spans: Seq[Span], root: Span): Seq[Span] = {
    val children = spans.groupBy(_.parent)
    def go(s: Span): Seq[Span] = s +: children.getOrElse(s.id, Nil).flatMap(go)
    go(root)
  }

  /** Spark engine counters per root span, averaged over `roots` (each with
    * its descendants). With one root the counts are exact.
    */
  def sparkPerSpan(spans: Seq[Span], roots: Seq[Span], cores: Int): Map[String, Double] = {
    val n = math.max(1, roots.size).toDouble
    val all = roots.flatMap(subtree(spans, _))
    def sum(f: Span => Long): Double = all.map(f).sum / n
    val wall = roots.map(_.seconds).sum / n
    val run = sum(_.executorRunMs) / 1e3
    Map(
      "spark.jobs" -> sum(_.jobs),
      "spark.stages" -> sum(_.stages),
      "spark.tasks" -> sum(_.tasks),
      "spark.shuffle_write_mb" -> sum(_.shuffleWriteBytes) / 1e6,
      "spark.shuffle_read_mb" -> sum(_.shuffleReadBytes) / 1e6,
      "spark.executor_run_s" -> run,
      "spark.executor_cpu_s" -> sum(_.executorCpuNs) / 1e9,
      "spark.gc_s" -> sum(_.gcMs) / 1e3,
      "spark.busy_frac" -> (if (wall > 0) run / (wall * cores) else 0.0),
    )
  }

  /** Median duration of the spans with this name, 0 when there are none. */
  def medianSeconds(spans: Seq[Span], name: String): Double = {
    val xs = spans.filter(_.name == name).map(_.seconds)
    if (xs.isEmpty) 0.0 else Main.median(xs)
  }

  def toJson(spans: Seq[Span]): String = {
    val t0 = spans.headOption.map(_.startNs).getOrElse(0L)
    spans.map { s =>
      s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, """ +
        s""""start_s": ${(s.startNs - t0) / 1e9}, "end_s": ${(s.endNs - t0) / 1e9}, """ +
        s""""jobs": ${s.jobs}, "stages": ${s.stages}, "tasks": ${s.tasks}, """ +
        s""""shuffle_write_bytes": ${s.shuffleWriteBytes}, "shuffle_read_bytes": ${s.shuffleReadBytes}, """ +
        s""""executor_run_ms": ${s.executorRunMs}, "executor_cpu_ns": ${s.executorCpuNs}, "gc_ms": ${s.gcMs}}"""
    }.mkString("[\n", ",\n", "\n]\n")
  }
}
