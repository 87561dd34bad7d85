from hypothesis import settings

# Property tests draw the same examples on every run, and no example fails
# for being slow: shared machines vary too much in speed for a deadline.
settings.register_profile("wignerlab", derandomize=True, deadline=None)
settings.load_profile("wignerlab")
