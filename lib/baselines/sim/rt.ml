include Mm_runtime.Sim_rt
