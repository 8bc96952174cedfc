package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.LakeIndexes
import repro.eval.Metrics
import repro.lake.{Lake, LakeDf}

/** D³L system benchmark. One process, one closed-loop client, Spark on
  * `local[nproc]`. Usage (from the repository root, after `perfbench/build.py`):
  *
  *   java … repro.perfbench.Main --workload <name> --seed <n> --seconds <s>
  *        --trace <0|1> --out <dir>
  *
  * Prints a human-readable report, then one JSON result line whose metrics
  * map names to values. With `--trace 0` they are the end-to-end metrics;
  * with `--trace 1` the per-layer metrics this workload measures, and the
  * spans are written to `<out>`.
  */
object Main {

  /** Top-k cut-off of every ranking the benchmark reads (paper §V, k = 15). */
  val K = 15

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path)

  /** What one workload run measured: metric name → value. Names and units
    * are declared in BENCHMARK.json.
    */
  final case class Outcome(
      attempted: Int,
      failed: Int,
      endToEnd: Map[String, Double],
      perLayer: Map[String, Double],
      report: Seq[String])

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, trace, Paths.get(need("out")))
  }

  val cores: Int = Runtime.getRuntime.availableProcessors()

  /** The benchmark's Spark environment; every setting is echoed in the report. */
  def session(work: Path): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val workload = Workloads.byName.getOrElse(opts.workload,
      throw new IllegalArgumentException(
        s"unknown workload ${opts.workload}; known: ${Workloads.byName.keys.toSeq.sorted.mkString(", ")}"))
    Files.createDirectories(opts.out)
    val spark = session(opts.out)
    try {
      spark.sparkContext.setLogLevel("WARN")
      val conf = spark.conf
      println(s"environment: nproc=$cores master=${spark.sparkContext.master} " +
        s"spark.sql.shuffle.partitions=${conf.get("spark.sql.shuffle.partitions")} " +
        s"spark.sql.autoBroadcastJoinThreshold=${conf.get("spark.sql.autoBroadcastJoinThreshold")} " +
        s"driver_heap_mb=${Runtime.getRuntime.maxMemory / (1 << 20)} spark=${spark.version}")
      val tracer = new Tracer(spark, opts.trace)
      val outcome = workload(spark, tracer, opts)
      val spans = tracer.finish()
      outcome.report.foreach(println)
      val metrics = if (opts.trace) {
        val layered = outcome.perLayer ++ Trace.selfTimes(spans) ++
          Map("trace.own_s" -> tracer.ownSeconds, "trace.spans" -> spans.size.toDouble)
        val file = opts.out.resolve(s"spans-${opts.workload}-seed${opts.seed}.json")
        Files.write(file, Trace.toJson(spans).getBytes(StandardCharsets.UTF_8))
        println(s"spans: ${spans.size} written to $file")
        layered
      } else outcome.endToEnd
      println(resultLine(outcome, metrics))
    } finally spark.stop()
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalStateException(s"metric is not finite: $v")
    else java.math.BigDecimal.valueOf(v).toPlainString

  def resultLine(o: Outcome, metrics: Map[String, Double]): String = {
    val ms = metrics.toSeq.sortBy(_._1).map { case (k, v) => s""""$k": ${num(v)}""" }
    s"""{"correct": ${o.failed == 0}, "attempted": ${o.attempted}, "failed": ${o.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }

  // ---- helpers shared by the workloads ---------------------------------------

  def seconds[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Spark storage (memory + disk) held by cached blocks, in MB. */
  def storageMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6

  /** Lake in the canonical long format, cached and materialised. */
  def loadLake(spark: SparkSession, lake: Lake): DataFrame = {
    val long = LakeDf.toLong(spark, lake.tables).cache()
    long.count()
    long
  }

  /** Top-k of a ranking DataFrame as target → ranked candidate list. */
  def topK(ranking: DataFrame): Map[String, Seq[String]] = {
    val spark = ranking.sparkSession
    import spark.implicits._
    ranking.filter(col("rank") <= K).select("t_table", "s_table", "rank")
      .as[(String, String, Int)].collect().toSeq
      .groupBy(_._1).map { case (t, rs) => t -> rs.sortBy(_._3).map(_._2) }
  }

  def ranked(top: Map[String, Seq[String]]): Seq[Metrics.Ranked] =
    top.toSeq.flatMap { case (t, ss) => ss.zipWithIndex.map { case (s, i) => Metrics.Ranked(t, s, i + 1) } }

  /** The index's sizes, for the gates and the per-layer counts. */
  def indexCounts(idx: LakeIndexes): Map[String, Long] = Map(
    "attributes" -> idx.catalog.count(),
    "signatures" -> idx.signatures.count(),
    "buckets" -> idx.buckets.count())
}
