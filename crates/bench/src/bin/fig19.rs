//! Fig. 19: KV-cache capacity utilization, static reservation vs DPA.

use llm_model::{LLM_7B_128K_GQA, LLM_7B_32K};
use pim_mem::{ChunkAllocator, RequestId, StaticAllocator};
use workload::Dataset;

/// Modules a 7B deployment spreads the KV cache over (Table IV).
const MODULES: u64 = 8;

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig19");
    bench::header("Fig. 19: capacity utilization with and without DPA");
    println!(
        "{:<14} {:<18} {:>9} {:>9}",
        "dataset", "model", "static", "DPA"
    );
    let mut static_sum = 0.0;
    let mut dpa_sum = 0.0;
    for d in Dataset::ALL {
        let model = match d {
            Dataset::QmSum | Dataset::Musique => LLM_7B_32K,
            _ => LLM_7B_128K_GQA,
        };
        let trace = bench::trace_for(d, 64, 128);
        let capacity = 128u64 << 30;
        let reservation = model.kv_bytes(model.context_window);
        let mut stat = StaticAllocator::new(capacity, reservation);
        let mut dpa = ChunkAllocator::with_default_chunks(capacity);
        // DPA allocates one chunk stream per (module, layer, K/V) — each
        // stream fragments independently in its last chunk.
        let streams = MODULES * u64::from(model.layers) * 2;
        for r in trace.iter() {
            let used = model.kv_bytes(r.final_len());
            if stat.admit(RequestId(r.id), used).is_err() {
                break;
            }
            for st in 0..streams {
                let sid = RequestId(r.id * 10_000 + st);
                dpa.register(sid).expect("fresh id");
                dpa.grow(sid, (used / streams).max(1)).expect("fits");
            }
        }
        let s = stat.capacity_utilization();
        let p = dpa.capacity_utilization();
        static_sum += s;
        dpa_sum += p;
        println!(
            "{:<14} {:<18} {:>8.1}% {:>8.1}%",
            d.name(),
            model.name,
            s * 100.0,
            p * 100.0
        );
        sink.metric(format!("{}/static_util", d.name()), s);
        sink.metric(format!("{}/dpa_util", d.name()), p);
    }
    println!(
        "{:<14} {:<18} {:>8.1}% {:>8.1}%",
        "average",
        "",
        100.0 * static_sum / 4.0,
        100.0 * dpa_sum / 4.0
    );
    println!("(paper: static 31.0-40.5%, average 36.2%; DPA average 75.6%)");
    sink.metric("average/static_util", static_sum / 4.0);
    sink.metric("average/dpa_util", dpa_sum / 4.0);
    sink.finish();
}
