include Mm_runtime.Real_rt
