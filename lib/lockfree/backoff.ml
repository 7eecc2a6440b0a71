let initial = 1
let max_spins = 256

let spin rt spins =
  for _ = 1 to spins do
    Rt.cpu_relax rt
  done;
  if spins < max_spins then spins * 2 else spins
