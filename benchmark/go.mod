module prochlo/benchmark

go 1.23

require prochlo v0.0.0

replace prochlo => ../
