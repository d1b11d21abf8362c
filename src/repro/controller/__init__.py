"""Memory controller: request queues, scheduling, row-buffer policies
and the command-issue engine that hosts the latency mechanisms.
"""
