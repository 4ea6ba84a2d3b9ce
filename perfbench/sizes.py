"""Input sizes and model configs of the three workloads, in one place."""

# set-up inputs
RAW_SKETCHES = 24   # preprocess input; their preprocessed form trains the VAE
CHAIRS = 8          # labelled chairs for 5-fold eval-seg

# vae_train: one train-vae epoch. All 24 sketches fit one batch window
# (fewer than 30 sketches, so train() holds none back for validation), so
# every epoch trains every stroke once in max-strokes-per-sketch steps.
VAE_MID = {
    "enc_hidden": 128, "dec_hidden": 256, "num_mixtures": 20,
    "latent_size": 128, "batch_size": 24, "learning_rate": 1e-3,
    "keep_prob": 0.9,
}

# The small VAE trained during set-up: its encoder gives the `nn`
# segmentation feature, and `reconstruct` samples from its decoder.
ENCODER = {
    "enc_hidden": 32, "dec_hidden": 64, "num_mixtures": 5,
    "latent_size": 16, "batch_size": 24, "learning_rate": 1e-3,
    "keep_prob": 0.9,
}

# seg_cv: eval-seg with the paper-size MLP (1024/512) and a short budget.
SEG_FOLDS = 5
SEG_EPOCHS = 4
SEG_FEATURES = ("nn", "idm-spt-con")

# prep_recon: reconstruct this many sketches of each preprocess output.
RECON_SKETCHES = 8
RECON_TAUS = (0.01, 0.5, 1.0)
